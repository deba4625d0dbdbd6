// Package core implements the PARIS algorithm: the probabilistic, holistic
// alignment of instances, relations, and classes across two RDFS ontologies
// (Sections 4 and 5 of the paper).
//
// The entry point is New, which wires two frozen store.Ontology values into
// an Aligner; Run executes the fixpoint of instance-equivalence and
// sub-relation passes and finishes with the subclass pass.
package core

import (
	"runtime"

	"repro/internal/literal"
	"repro/internal/store"
)

// Default parameter values. The paper's central claim (Section 5.4) is that
// none of these require dataset-specific tuning.
const (
	// DefaultTheta is the initial sub-relation probability θ used to
	// bootstrap the very first iteration and the truncation threshold below
	// which probabilities are treated as zero (Section 5.1-5.2).
	DefaultTheta = 0.1
	// DefaultMaxIterations bounds the fixpoint; the paper's runs converge
	// in 2-4 iterations.
	DefaultMaxIterations = 10
	// DefaultConvergence is the fraction of entities that may change their
	// maximal assignment in a converged iteration (Section 6.1: "less than
	// 1% of the entities changed their maximal assignment").
	DefaultConvergence = 0.01
	// DefaultPairLimit caps the number of statement pairs evaluated per
	// relation or class in the sub-relation and subclass equations
	// (Section 5.2: "we limit the number of pairs ... to 10,000").
	DefaultPairLimit = 10000
	// DefaultHubLimit caps the fan-out explored through a single
	// second-argument during the instance pass. Hubs with more statements
	// than this are expanded only partially; such relations have tiny
	// inverse functionality, so the skipped evidence is negligible.
	DefaultHubLimit = 10000
)

// Config controls an alignment run. The zero value is usable: every field
// falls back to the paper's defaults.
type Config struct {
	// Theta is the bootstrap sub-relation score of the very first
	// iteration (Section 5.1). Zero means DefaultTheta. Section 6.3 shows
	// the final scores do not depend on it.
	Theta float64

	// Truncation is the probability below which equalities and
	// sub-relation scores are treated as zero and not stored (Section
	// 5.2). Zero means DefaultTheta (the paper reuses θ for both roles);
	// negative disables truncation.
	Truncation float64

	// MaxIterations bounds the number of fixpoint iterations. Zero means
	// DefaultMaxIterations.
	MaxIterations int

	// Convergence is the changed-assignment fraction under which the
	// fixpoint stops. Zero means DefaultConvergence; negative disables
	// early stopping.
	Convergence float64

	// NegativeEvidence enables Equation (14): after the positive fixpoint
	// converges, one extra pass multiplies every candidate by the
	// counter-evidence factor Pr2. Running the factor earlier would feed
	// it immature equality estimates — its inner products treat a weakly
	// established equality as a near-conflict — and suppress all matches,
	// which is exactly the failure mode Section 6.3 reports on raw
	// restaurant literals.
	NegativeEvidence bool

	// AllEqualities makes the sub-relation, subclass, and bridge lookups
	// use every stored equality instead of only the previous maximal
	// assignment (the Section 6.3 ablation; slower, near-identical
	// results).
	AllEqualities bool

	// PairLimit caps statement pairs per relation/class in Equations (12)
	// and (17). Zero means DefaultPairLimit; negative disables the cap.
	PairLimit int

	// HubLimit caps fan-out through one second-argument in the instance
	// pass. Zero means DefaultHubLimit; negative disables the cap.
	HubLimit int

	// Workers is the number of goroutines used by the parallel passes.
	// Zero means GOMAXPROCS. Each worker holds 8 × |ontology-2 resources|
	// bytes of scratch for the instance pass, kept for the aligner's
	// lifetime.
	Workers int

	// FunMode selects the global-functionality definition (Appendix A).
	// The default is the paper's harmonic mean.
	FunMode store.FunMode

	// MatcherTo2 produces literal-equality candidates from ontology-1
	// literals into ontology 2; MatcherTo1 is the reverse direction. Nil
	// means the identity matcher over the shared literal table (the
	// paper's default equality function).
	MatcherTo2 literal.Matcher
	MatcherTo1 literal.Matcher

	// OnIteration, when non-nil, is invoked after every completed fixpoint
	// iteration with a snapshot of the aligner state. It is called on the
	// Run goroutine; the aligner must not be mutated from the callback.
	OnIteration func(it int, a *Aligner)
}

// withDefaults resolves zero fields to the documented defaults.
func (c Config) withDefaults() Config {
	if c.Theta == 0 {
		c.Theta = DefaultTheta
	}
	if c.Truncation == 0 {
		c.Truncation = DefaultTheta
	}
	if c.Truncation < 0 {
		c.Truncation = 0
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = DefaultMaxIterations
	}
	if c.Convergence == 0 {
		c.Convergence = DefaultConvergence
	}
	if c.PairLimit == 0 {
		c.PairLimit = DefaultPairLimit
	}
	if c.PairLimit < 0 {
		c.PairLimit = int(^uint(0) >> 1)
	}
	if c.HubLimit == 0 {
		c.HubLimit = DefaultHubLimit
	}
	if c.HubLimit < 0 {
		c.HubLimit = int(^uint(0) >> 1)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}
