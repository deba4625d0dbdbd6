package core

import (
	"repro/internal/store"
)

// weighted is a node of the other ontology with an equality probability.
type weighted struct {
	node store.Node
	p    float64
}

// instancePass computes the instance-equality table of one iteration using
// Equation (13), or Equation (14) when negative evidence is enabled. It
// implements the optimized traversal of Section 5.2: for each instance x of
// ontology 1, follow every statement r(x, y), every known equal y' of y, and
// every statement r'(x', y') of ontology 2, accumulating the per-candidate
// product.
func (a *Aligner) instancePass() *eqStore {
	next := newEqStore(a.o1.NumResources(), a.o2.NumResources())
	insts := a.o1.Instances()
	results := make([][]Cand, len(insts))
	parallelFor(len(insts), a.cfg.Workers, func(w, i int) {
		results[i] = a.instanceEqualities(a.worker(w), insts[i])
	})
	for i, cands := range results {
		next.setFwd(insts[i], cands)
	}
	return next
}

// instanceEqualities evaluates all equality candidates of one ontology-1
// instance and returns those above the threshold. It leaves the scratch
// accumulator reset for the next instance.
func (a *Aligner) instanceEqualities(s *scratch, x store.Resource) []Cand {
	edges := a.o1.Edges(x)
	if len(edges) == 0 {
		return nil
	}
	// prod[x'] = Π over statement pairs of
	//   (1 - P(r'⊆r)·fun⁻¹(r)·P(y≡y')) · (1 - P(r⊆r')·fun⁻¹(r')·P(y≡y'))
	for _, e := range edges {
		r := e.Rel
		invFunR := a.fun1[r.Inverse()]
		s.eqBuf = a.equalsOf1(e.To, s.eqBuf[:0])
		for _, w := range s.eqBuf {
			a.expandBridge(s, r, invFunR, w)
		}
	}
	if len(s.touched) == 0 {
		return nil
	}
	// Negative evidence runs in the dedicated filter pass, once the
	// equalities feeding its inner products have converged (see Config).
	useNegative := a.negativePass && a.rel != nil
	// In the bootstrap iteration all scores are scaled down by θ, so the
	// fixed truncation threshold would wipe them out for small θ. A floor
	// proportional to θ keeps the kept-candidate set θ-invariant, which is
	// what makes the final scores independent of θ (Section 6.3).
	threshold := a.cfg.Truncation
	if a.rel == nil && a.cfg.Theta*0.5 < threshold {
		threshold = a.cfg.Theta * 0.5
	}
	s.cands = s.cands[:0]
	for _, x2 := range s.touched {
		p := 1 - s.prod[x2]
		s.prod[x2] = 1
		if useNegative {
			p *= a.negativeEvidence(s, x, x2)
		}
		if p >= threshold && p > 0 {
			s.cands = append(s.cands, Cand{To: x2, P: p})
		}
	}
	s.touched = s.touched[:0]
	if len(s.cands) == 0 {
		return nil
	}
	return append([]Cand(nil), s.cands...)
}

// expandBridge walks the ontology-2 statements r'(x', y') whose second
// argument y' is equal to the current y with probability w.p, multiplying
// the Equation (13) factor into each candidate's product.
func (a *Aligner) expandBridge(s *scratch, r store.Relation, invFunR float64, w weighted) {
	var edges2 []store.Edge
	if w.node.IsLit() {
		edges2 = a.o2.LitEdges(w.node.Lit())
	} else {
		edges2 = a.o2.Edges(w.node.Res())
	}
	if len(edges2) > a.cfg.HubLimit {
		edges2 = edges2[:a.cfg.HubLimit]
	}
	for _, e2 := range edges2 {
		if e2.To.IsLit() {
			continue // x' must be an instance
		}
		x2 := e2.To.Res()
		if a.o2.IsClass(x2) {
			continue
		}
		// The ontology-2 statement is q(y', x'), i.e. r'(x', y') with
		// r' = q⁻¹.
		rp := e2.Rel.Inverse()
		f := (1 - a.p21(rp, r)*invFunR*w.p) *
			(1 - a.p12(r, rp)*a.fun2[rp.Inverse()]*w.p)
		if f == 1 {
			continue
		}
		if s.prod[x2] == 1 {
			s.touched = append(s.touched, x2)
		}
		s.prod[x2] *= f
	}
}

// negativeEvidence computes the Pr2 factor of Equation (14) for a candidate
// pair (x, x'): for every statement r(x, y) and every ontology-2 relation r'
// related to r, multiply
//
//	(1 - fun(r)·P(r'⊆r)·Π_{y'':r'(x',y'')}(1-P(y≡y''))) ·
//	(1 - fun(r')·P(r⊆r')·Π_{y'':r'(x',y'')}(1-P(y≡y'')))
//
// When x' has no r'-statements the inner product is one (the paper's
// convention), penalizing instances whose counterpart lacks the relation.
func (a *Aligner) negativeEvidence(s *scratch, x store.Resource, x2 store.Resource) float64 {
	edges2 := a.o2.Edges(x2)
	pr2 := 1.0
	for _, e := range a.o1.Edges(x) {
		r := e.Rel
		funR := a.fun1[r]
		s.eqBuf = a.equalsOf1(e.To, s.eqBuf[:0])
		s.links = a.linkedRelations(r, s.links[:0])
		for _, link := range s.links {
			inner := 1.0
			for _, e2 := range edges2 {
				if e2.Rel != link.rel {
					continue
				}
				inner *= 1 - pEq(e.To, e2.To, s.eqBuf)
				if inner == 0 {
					break
				}
			}
			pr2 *= (1 - funR*link.p21*inner) *
				(1 - a.fun2[link.rel]*link.p12*inner)
			if pr2 == 0 {
				return 0
			}
		}
	}
	return pr2
}

// pEq returns P(y ≡ y”) given the precomputed equality candidates of y.
func pEq(y store.Node, y2 store.Node, cands []weighted) float64 {
	for _, w := range cands {
		if w.node == y2 {
			return w.p
		}
	}
	return 0
}

// equalsOf1 appends to buf the ontology-2 nodes equal to the ontology-1
// node y with positive probability: literal candidates come from the clamped
// literal matcher, resource candidates from the previous iteration's
// equalities (maximal assignment only, unless AllEqualities).
func (a *Aligner) equalsOf1(y store.Node, buf []weighted) []weighted {
	if y.IsLit() {
		for _, c := range a.cfg.MatcherTo2.Candidates(y.Lit()) {
			buf = append(buf, weighted{node: store.LitNode(c.Lit), p: c.P})
		}
		return buf
	}
	x := y.Res()
	if a.eq == nil {
		return buf
	}
	if a.cfg.AllEqualities {
		for _, c := range a.eq.fwd[x] {
			buf = append(buf, weighted{node: store.ResNode(c.To), p: c.P})
		}
		return buf
	}
	if m := a.eq.maxFwd[x]; m.To != NoResource {
		buf = append(buf, weighted{node: store.ResNode(m.To), p: m.P})
	}
	return buf
}

// equalsOf2 is the mirror of equalsOf1 for ontology-2 nodes.
func (a *Aligner) equalsOf2(y store.Node, buf []weighted) []weighted {
	if y.IsLit() {
		for _, c := range a.cfg.MatcherTo1.Candidates(y.Lit()) {
			buf = append(buf, weighted{node: store.LitNode(c.Lit), p: c.P})
		}
		return buf
	}
	x := y.Res()
	if a.eq == nil {
		return buf
	}
	if a.cfg.AllEqualities {
		for _, c := range a.eq.rev[x] {
			buf = append(buf, weighted{node: store.ResNode(c.To), p: c.P})
		}
		return buf
	}
	if m := a.eq.maxRev[x]; m.To != NoResource {
		buf = append(buf, weighted{node: store.ResNode(m.To), p: m.P})
	}
	return buf
}
