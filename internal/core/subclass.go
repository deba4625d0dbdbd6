package core

import (
	"repro/internal/store"
)

// subClassPass evaluates Equation (17) in both directions after the
// instance fixpoint has converged (Section 4.3):
//
//	P(c ⊆ c') = Σ_{x: type(x,c)} (1 - Π_{y: type(y,c')} (1 - P(x≡y)))
//	          / #x: type(x,c)
//
// With maximal assignments (the default), the inner product degenerates to
// the single assigned instance, so each instance x of c with assignment
// (y, p) adds p to every class of y. At most PairLimit instances per class
// are evaluated (Section 5.2).
func (a *Aligner) subClassPass() (to2, to1 []ClassAlignment) {
	if a.eq == nil {
		return nil, nil
	}
	to2 = a.subClassDirection(a.o1, a.o2, a.eq.fwd, a.eq.maxFwd)
	to1 = a.subClassDirection(a.o2, a.o1, a.eq.rev, a.eq.maxRev)
	return to2, to1
}

func (a *Aligner) subClassDirection(
	src, dst *store.Ontology,
	all [][]Cand,
	maximal []Cand,
) []ClassAlignment {
	classes := src.Classes()
	rows := make([][]ClassAlignment, len(classes))
	parallelFor(len(classes), a.cfg.Workers, func(_, i int) {
		rows[i] = a.subClassRow(src, dst, classes[i], all, maximal)
	})
	var out []ClassAlignment
	for _, row := range rows {
		out = append(out, row...)
	}
	SortClassAlignments(out)
	return out
}

func (a *Aligner) subClassRow(
	src, dst *store.Ontology,
	c store.Resource,
	all [][]Cand,
	maximal []Cand,
) []ClassAlignment {
	insts := src.InstancesOf(c)
	if len(insts) == 0 {
		return nil
	}
	if len(insts) > a.cfg.PairLimit {
		insts = insts[:a.cfg.PairLimit]
	}
	score := make(map[store.Resource]float64)
	if a.cfg.AllEqualities {
		perInst := make(map[store.Resource]float64)
		for _, x := range insts {
			for k := range perInst {
				delete(perInst, k)
			}
			for _, cand := range all[x] {
				for _, c2 := range dst.ClassesOf(cand.To) {
					if cur, ok := perInst[c2]; ok {
						perInst[c2] = cur * (1 - cand.P)
					} else {
						perInst[c2] = 1 - cand.P
					}
				}
			}
			for c2, prod := range perInst {
				score[c2] += 1 - prod
			}
		}
	} else {
		for _, x := range insts {
			m := maximal[x]
			if m.To == NoResource {
				continue
			}
			for _, c2 := range dst.ClassesOf(m.To) {
				score[c2] += m.P
			}
		}
	}
	if len(score) == 0 {
		return nil
	}
	out := make([]ClassAlignment, 0, len(score))
	n := float64(len(insts))
	for c2, s := range score {
		p := s / n
		if p > 1 {
			p = 1
		}
		out = append(out, ClassAlignment{Sub: c, Super: c2, P: p})
	}
	return out
}
