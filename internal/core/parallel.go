package core

import (
	"sync"

	"repro/internal/store"
)

// parallelFor runs fn(w, i) for i in [0, n) across at most the given number
// of worker goroutines. Work is dealt in contiguous chunks to keep per-item
// overhead low; fn must be safe to call concurrently for distinct i. The
// worker index w lies in [0, workers) and identifies the goroutine making
// the call: calls with the same w never overlap, so fn may use per-worker
// scratch indexed by w without locking.
//
// The paper's implementation was single-threaded and IO-bound on an SSD
// (Section 5.2); our ontologies are memory-resident, so the per-instance
// equality computations parallelize trivially and this substitutes for the
// paper's fast-storage requirement.
func parallelFor(n, workers int, fn func(w, i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	const chunk = 64
	var next int
	var mu sync.Mutex
	take := func() (int, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, 0, false
		}
		lo := next
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		next = hi
		return lo, hi, true
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo, hi, ok := take()
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					fn(w, i)
				}
			}
		}()
	}
	wg.Wait()
}

// scratch is the reusable accumulator state of one parallelFor worker. It
// replaces the per-call maps of the instance and sub-relation passes with
// slices indexed by the interned IDs the store already assigns.
type scratch struct {
	// prod[x'] is the Equation (13) product of ontology-2 resource x' for
	// the ontology-1 instance under evaluation. A slot equal to 1 is
	// untouched: every factor f multiplied in lies in [0, 1), since factors
	// are built from probabilities and f == 1 is skipped, so a touched slot
	// is < 1. touched lists the touched slots in first-touch order.
	prod    []float64
	touched []store.Resource

	eqBuf []weighted // equalities of one second argument
	cands []Cand     // kept candidates before they are copied out
	links []relLink  // Equation (14) relation links of one relation

	// Sub-relation pass, indexed by destination relation: num accumulates
	// the Equation (12) numerator of one source relation; perStmt holds the
	// per-statement products, inStmt marks the relations perStmt holds for
	// the current statement and stmtRels lists them in first-touch order.
	num      []float64
	perStmt  []float64
	inStmt   []bool
	stmtRels []store.Relation
	xBuf     []weighted
	yBuf     []weighted
}

// worker returns the scratch of parallelFor worker w, allocating it on the
// worker's first use.
func (a *Aligner) worker(w int) *scratch {
	if s := a.scratch[w]; s != nil {
		return s
	}
	nRel := max(a.o1.NumRelations(), a.o2.NumRelations())
	s := &scratch{
		prod:    make([]float64, a.o2.NumResources()),
		num:     make([]float64, nRel),
		perStmt: make([]float64, nRel),
		inStmt:  make([]bool, nRel),
	}
	for i := range s.prod {
		s.prod[i] = 1
	}
	a.scratch[w] = s
	return s
}
