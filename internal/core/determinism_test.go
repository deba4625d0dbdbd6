package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/gen"
)

// contentDigest hashes the alignment content of a result: instance
// assignments and relation and class scores, with iteration statistics and
// timings left out, so two computations of the same alignment hash the same
// however long they took.
func contentDigest(t *testing.T, res *Result) string {
	t.Helper()
	s := res.Snapshot()
	content := ResultSnapshot{
		Instances:   s.Instances,
		Relations12: s.Relations12, Relations21: s.Relations21,
		Classes12: s.Classes12, Classes21: s.Classes21,
	}
	data, err := content.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestDeterminism pins the alignment of the world and movies corpora (seed
// 42, default scale, default Config) to golden digests at every worker
// count. The corpora span many 64-item chunks of parallelFor, so workers
// really do interleave and any sharing of per-worker scratch shows up as a
// changed digest.
func TestDeterminism(t *testing.T) {
	corpora := []struct {
		name   string
		d      *gen.Dataset
		golden string
	}{
		{"world", gen.World(gen.WorldConfig{Seed: 42}),
			"9367c2b0d31a23de940f3ab86d1107073eec3001e2bbbd6649245ff0e3a67003"},
		{"movies", gen.Movies(gen.MoviesConfig{Seed: 42}),
			"30f4f53947aa74344077d3274ef683f3c897254169233ef9b32b1fdacf77e1b6"},
	}
	for _, c := range corpora {
		o1, o2, err := c.d.Build(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got := contentDigest(t, New(o1, o2, Config{Workers: workers}).Run())
			if got != c.golden {
				t.Errorf("%s, %d workers: digest %s, want %s", c.name, workers, got, c.golden)
			}
		}
	}
}

// TestNegativeEvidenceDeterministic runs the Equation (14) filter pass
// repeatedly on one corpus: the counter-evidence product must multiply its
// factors in the same order every time, so every run yields one digest.
func TestNegativeEvidenceDeterministic(t *testing.T) {
	d := gen.World(gen.WorldConfig{Seed: 7, People: 1500, Cities: 60,
		Companies: 50, Movies: 375, Albums: 300, Books: 300})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]int{}
	for i := 0; i < 6; i++ {
		res := New(o1, o2, Config{NegativeEvidence: true, Workers: 1}).Run()
		digests[contentDigest(t, res)]++
	}
	if len(digests) != 1 {
		t.Fatalf("6 identical runs gave %d distinct digests: %v", len(digests), digests)
	}
}
