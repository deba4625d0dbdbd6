package core

import (
	"repro/internal/store"
)

// subRelStore holds the directed sub-relation scores of one iteration.
// Missing entries are zero; before the first iteration (nil store) every
// pair scores the bootstrap value θ (Section 5.1).
type subRelStore struct {
	to2 []map[store.Relation]float64 // ontology-1 relation -> P(r1 ⊆ r2)
	to1 []map[store.Relation]float64 // ontology-2 relation -> P(r2 ⊆ r1)
}

// p12 returns P(r1 ⊆ r2) for r1 of ontology 1 and r2 of ontology 2.
func (a *Aligner) p12(r1, r2 store.Relation) float64 {
	if a.rel == nil {
		return a.cfg.Theta
	}
	return a.rel.to2[r1][r2]
}

// p21 returns P(r2 ⊆ r1) for r2 of ontology 2 and r1 of ontology 1.
func (a *Aligner) p21(r2, r1 store.Relation) float64 {
	if a.rel == nil {
		return a.cfg.Theta
	}
	return a.rel.to1[r2][r1]
}

// relLink pairs one ontology-2 relation with its inclusion scores against a
// fixed ontology-1 relation.
type relLink struct {
	rel store.Relation // ontology-2 relation
	p12 float64        // P(r1 ⊆ rel)
	p21 float64        // P(rel ⊆ r1)
}

// linkedRelations appends to buf the ontology-2 relations with a positive
// inclusion score against r1 in either direction, in relation ID order so
// that Equation (14) multiplies its factors in the same order on every run.
// During the bootstrap iteration every ontology-2 relation is linked with θ.
func (a *Aligner) linkedRelations(r1 store.Relation, buf []relLink) []relLink {
	for i := 0; i < a.o2.NumRelations(); i++ {
		r2 := store.Relation(i)
		l := relLink{rel: r2, p12: a.p12(r1, r2), p21: a.p21(r2, r1)}
		if l.p12 > 0 || l.p21 > 0 {
			buf = append(buf, l)
		}
	}
	return buf
}

// subRelationPass evaluates Equation (12) in both directions:
//
//	P(r ⊆ r') = Σ_{r(x,y)} (1 - Π_{r'(x',y')} (1 - P(x≡x')·P(y≡y')))
//	          / Σ_{r(x,y)} (1 - Π_{x',y'}    (1 - P(x≡x')·P(y≡y')))
//
// following the Section 5.2 optimizations: only the equalities of the
// previous maximal assignment are considered (unless AllEqualities), at most
// PairLimit statements per relation are evaluated, and scores below θ are
// dropped. Scores for inverse relations are derived from the base pair,
// since P(r⁻¹ ⊆ r'⁻¹) = P(r ⊆ r') holds exactly.
func (a *Aligner) subRelationPass() *subRelStore {
	s := &subRelStore{
		to2: make([]map[store.Relation]float64, a.o1.NumRelations()),
		to1: make([]map[store.Relation]float64, a.o2.NumRelations()),
	}
	a.subRelDirection(a.o1, a.o2, a.equalsOf1, s.to2)
	a.subRelDirection(a.o2, a.o1, a.equalsOf2, s.to1)
	return s
}

// subRelDirection fills out[r] = {r': P(r ⊆ r')} for every relation r of
// src, with r' ranging over relations of dst.
func (a *Aligner) subRelDirection(
	src, dst *store.Ontology,
	equals func(store.Node, []weighted) []weighted,
	out []map[store.Relation]float64,
) {
	nBase := src.NumRelations() / 2
	rows := make([][2]map[store.Relation]float64, nBase)
	parallelFor(nBase, a.cfg.Workers, func(w, i int) {
		s := a.worker(w)
		num := s.num[:dst.NumRelations()]
		den := a.subRelRow(s, src, dst, store.Relation(2*i), equals)
		if den == 0 {
			clear(num)
			return
		}
		direct := make(map[store.Relation]float64)
		inverse := make(map[store.Relation]float64)
		for k, v := range num {
			num[k] = 0
			p := v / den
			if p < a.cfg.Truncation || p == 0 {
				continue
			}
			if p > 1 {
				p = 1
			}
			r2 := store.Relation(k)
			direct[r2] = p
			inverse[r2.Inverse()] = p
		}
		if len(direct) > 0 {
			rows[i] = [2]map[store.Relation]float64{direct, inverse}
		}
	})
	for i, row := range rows {
		out[2*i] = row[0]
		out[2*i+1] = row[1]
	}
}

// subRelRow accumulates into s.num the numerator per destination relation
// and returns the shared denominator for one base relation of src. Each
// numerator sums its statements in statement order, and each per-statement
// product multiplies its factors in traversal order.
func (a *Aligner) subRelRow(
	s *scratch,
	src, dst *store.Ontology,
	r store.Relation,
	equals func(store.Node, []weighted) []weighted,
) float64 {
	den := 0.0
	count := 0
	src.EachStatement(r, func(x, y store.Node) bool {
		count++
		if count > a.cfg.PairLimit {
			return false
		}
		s.xBuf = equals(x, s.xBuf[:0])
		if len(s.xBuf) == 0 {
			return true
		}
		s.yBuf = equals(y, s.yBuf[:0])
		if len(s.yBuf) == 0 {
			return true
		}
		// Denominator term: 1 - Π over all equal pairs (x', y').
		denProd := 1.0
		for _, wx := range s.xBuf {
			for _, wy := range s.yBuf {
				pp := wx.p * wy.p
				denProd *= 1 - pp
				// Numerator: which dst relations connect x' to y'?
				forEachConnecting(dst, wx.node, wy.node, func(r2 store.Relation) {
					if s.inStmt[r2] {
						s.perStmt[r2] *= 1 - pp
					} else {
						s.inStmt[r2] = true
						s.perStmt[r2] = 1 - pp
						s.stmtRels = append(s.stmtRels, r2)
					}
				})
			}
		}
		den += 1 - denProd
		for _, r2 := range s.stmtRels {
			s.num[r2] += 1 - s.perStmt[r2]
			s.inStmt[r2] = false
		}
		s.stmtRels = s.stmtRels[:0]
		return true
	})
	return den
}

// forEachConnecting calls fn(r2) for every dst relation r2 with r2(x, y).
func forEachConnecting(dst *store.Ontology, x, y store.Node, fn func(store.Relation)) {
	if x.IsLit() {
		for _, e := range dst.LitEdges(x.Lit()) {
			if e.To == y {
				fn(e.Rel)
			}
		}
		return
	}
	for _, e := range dst.Edges(x.Res()) {
		if e.To == y {
			fn(e.Rel)
		}
	}
}
