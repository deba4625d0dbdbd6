package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/literal"
	"repro/internal/store"
)

// Aligner runs the PARIS fixpoint over two ontologies. Create it with New;
// the zero value is not usable.
type Aligner struct {
	o1, o2 *store.Ontology
	cfg    Config

	fun1, fun2 []float64 // global functionalities under cfg.FunMode

	eq     *eqStore     // current instance equalities
	prevEq *eqStore     // previous iteration's equalities
	rel    *subRelStore // current sub-relation scores (nil before iteration 1)

	// negativePass marks the final Equation (14) filter iteration (see
	// Config.NegativeEvidence).
	negativePass bool

	scratch []*scratch // per parallelFor worker, allocated on first use

	iters []IterationStats
}

// IterationStats records one fixpoint iteration for reporting (the "Change
// to prev." and "Time" columns of Tables 3 and 5).
type IterationStats struct {
	Iteration       int
	ChangedFraction float64 // fraction of entities with a new maximal assignment
	Assigned        int     // entities with a maximal assignment
	InstanceTime    time.Duration
	RelationTime    time.Duration
}

// String renders the stats in one line.
func (s IterationStats) String() string {
	return fmt.Sprintf("iter %d: %d assigned, %.1f%% changed, inst %v, rel %v",
		s.Iteration, s.Assigned, 100*s.ChangedFraction, s.InstanceTime, s.RelationTime)
}

// LiteralTableError reports two ontologies that do not share a literal
// table. Every downstream probability would silently be wrong: the clamped
// literal equality of Section 5.3 is an identity check over interned IDs, so
// literals from separate tables can never compare equal.
type LiteralTableError struct {
	O1, O2 string // ontology display names
}

func (e *LiteralTableError) Error() string {
	return fmt.Sprintf("core: ontologies %q and %q do not share a literal table (build both with the same store.Literals)", e.O1, e.O2)
}

// New wires two frozen ontologies into an Aligner. The ontologies must share
// one literal table (see store.NewBuilder); New panics otherwise. Callers
// that can surface an error should prefer NewChecked, which reports the
// mismatch as a *LiteralTableError instead.
func New(o1, o2 *store.Ontology, cfg Config) *Aligner {
	a, err := NewChecked(o1, o2, cfg)
	if err != nil {
		panic(err.Error())
	}
	return a
}

// NewChecked wires two frozen ontologies into an Aligner. The ontologies
// must share one literal table (see store.NewBuilder); NewChecked returns a
// *LiteralTableError otherwise.
func NewChecked(o1, o2 *store.Ontology, cfg Config) (*Aligner, error) {
	if o1.Literals() != o2.Literals() {
		return nil, &LiteralTableError{O1: o1.Name(), O2: o2.Name()}
	}
	cfg = cfg.withDefaults()
	if cfg.MatcherTo2 == nil {
		cfg.MatcherTo2 = literal.IdentityMatcher{Target: o2}
	}
	if cfg.MatcherTo1 == nil {
		cfg.MatcherTo1 = literal.IdentityMatcher{Target: o1}
	}
	a := &Aligner{o1: o1, o2: o2, cfg: cfg, scratch: make([]*scratch, cfg.Workers)}
	if cfg.FunMode == store.FunHarmonicMean {
		a.fun1 = funSlice(o1)
		a.fun2 = funSlice(o2)
	} else {
		a.fun1 = o1.FunctionalityWith(cfg.FunMode)
		a.fun2 = o2.FunctionalityWith(cfg.FunMode)
	}
	return a, nil
}

func funSlice(o *store.Ontology) []float64 {
	fs := make([]float64, o.NumRelations())
	for i := range fs {
		fs[i] = o.Fun(store.Relation(i))
	}
	return fs
}

// Ontology1 returns the first ontology.
func (a *Aligner) Ontology1() *store.Ontology { return a.o1 }

// Ontology2 returns the second ontology.
func (a *Aligner) Ontology2() *store.Ontology { return a.o2 }

// Run executes the fixpoint of Section 5.1: alternate the instance-
// equivalence pass (Equation 13/14) and the sub-relation pass (Equation 12)
// until the maximal assignments converge, then compute subclass scores
// (Equation 17) once. It returns the final result. Run cannot be
// interrupted; long-running callers should use RunContext.
func (a *Aligner) Run() *Result {
	res, _ := a.RunContext(context.Background()) // Background never cancels
	return res
}

// RunContext is Run with cancellation: the context is checked before every
// pass (instance, sub-relation, subclass), so a cancelled or expired
// context aborts the fixpoint within one pass. On cancellation it returns
// nil and the context's error; the aligner's intermediate state stays
// inspectable through Assignments and friends.
func (a *Aligner) RunContext(ctx context.Context) (*Result, error) {
	it := 0
	for it = 1; it <= a.cfg.MaxIterations; it++ {
		stats, err := a.StepContext(ctx, it)
		if err != nil {
			return nil, err
		}
		if a.cfg.OnIteration != nil {
			a.cfg.OnIteration(it, a)
		}
		if a.cfg.Convergence >= 0 && stats.ChangedFraction < a.cfg.Convergence {
			break
		}
	}
	if a.cfg.NegativeEvidence {
		// Equation (14) runs as a filter over the converged equalities:
		// counter-evidence is only meaningful once the equality estimates
		// feeding its inner products are trustworthy (see Config).
		a.negativePass = true
		if _, err := a.StepContext(ctx, it+1); err != nil {
			return nil, err
		}
		if a.cfg.OnIteration != nil {
			a.cfg.OnIteration(it+1, a)
		}
	}
	if err := ctx.Err(); err != nil {
		// Cancelled after the last iteration: skip the subclass pass too.
		return nil, err
	}
	return a.Result(), nil
}

// Step runs a single fixpoint iteration (instance pass followed by
// sub-relation pass) and records its statistics. Most callers should use
// Run; Step exists for per-iteration evaluation harnesses.
func (a *Aligner) Step(it int) IterationStats {
	stats, _ := a.StepContext(context.Background(), it)
	return stats
}

// StepContext is Step with cancellation, checked before the instance pass
// and again between the instance and sub-relation passes. A step aborted
// between passes leaves the equalities of iteration it paired with the
// sub-relation scores of iteration it-1; that inconsistency is only ever
// observed by a caller that keeps using the aligner after cancellation.
func (a *Aligner) StepContext(ctx context.Context, it int) (IterationStats, error) {
	if err := ctx.Err(); err != nil {
		return IterationStats{}, err
	}
	t0 := time.Now()
	next := a.instancePass()
	next.finish()
	stats := IterationStats{
		Iteration:       it,
		ChangedFraction: next.changedFraction(a.eq),
		Assigned:        next.numAssigned(),
		InstanceTime:    time.Since(t0),
	}
	a.prevEq, a.eq = a.eq, next

	if err := ctx.Err(); err != nil {
		return stats, err
	}
	t1 := time.Now()
	a.rel = a.subRelationPass()
	stats.RelationTime = time.Since(t1)

	a.iters = append(a.iters, stats)
	return stats, nil
}

// Iterations returns the statistics of all completed iterations.
func (a *Aligner) Iterations() []IterationStats { return a.iters }

// Assignments returns the current maximal instance assignments from
// ontology 1 to ontology 2, in ontology-1 ID order.
func (a *Aligner) Assignments() []Assignment {
	if a.eq == nil {
		return nil
	}
	var out []Assignment
	for x, c := range a.eq.maxFwd {
		if c.To != NoResource {
			out = append(out, Assignment{X1: store.Resource(x), X2: c.To, P: c.P})
		}
	}
	return out
}

// Candidates returns all stored equality candidates of an ontology-1
// instance (descending probability).
func (a *Aligner) Candidates(x store.Resource) []Cand {
	if a.eq == nil {
		return nil
	}
	return a.eq.fwd[x]
}

// RelationAlignments returns the current sub-relation scores above the
// truncation threshold, for both directions.
func (a *Aligner) RelationAlignments() (to2, to1 []RelAlignment) {
	if a.rel == nil {
		return nil, nil
	}
	for r1, m := range a.rel.to2 {
		for r2, p := range m {
			to2 = append(to2, RelAlignment{Sub: store.Relation(r1), Super: r2, P: p})
		}
	}
	for r2, m := range a.rel.to1 {
		for r1, p := range m {
			to1 = append(to1, RelAlignment{Sub: store.Relation(r2), Super: r1, P: p})
		}
	}
	sortRelAlignments(to2)
	sortRelAlignments(to1)
	return to2, to1
}

// Result finalizes the run: it computes the subclass alignment from the
// final instance assignment (Section 4.3: classes are aligned only after the
// instances) and packages everything.
func (a *Aligner) Result() *Result {
	res := &Result{
		O1:         a.o1,
		O2:         a.o2,
		Iterations: a.iters,
	}
	res.Instances = a.Assignments()
	res.Relations12, res.Relations21 = a.RelationAlignments()
	t0 := time.Now()
	res.Classes12, res.Classes21 = a.subClassPass()
	res.ClassTime = time.Since(t0)
	return res
}
