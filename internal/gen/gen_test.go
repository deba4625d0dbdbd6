package gen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func TestPersonsDeterministic(t *testing.T) {
	a := Persons(PersonsConfig{N: 50, Seed: 7})
	b := Persons(PersonsConfig{N: 50, Seed: 7})
	if len(a.Triples1) != len(b.Triples1) || len(a.Triples2) != len(b.Triples2) {
		t.Fatal("same seed, different sizes")
	}
	for i := range a.Triples1 {
		if !a.Triples1[i].Equal(b.Triples1[i]) {
			t.Fatalf("triple %d differs", i)
		}
	}
	c := Persons(PersonsConfig{N: 50, Seed: 8})
	same := len(c.Triples1) == len(a.Triples1)
	if same {
		same = false
		for i := range a.Triples1 {
			if !a.Triples1[i].Equal(c.Triples1[i]) {
				same = false
				break
			}
			same = true
		}
	}
	if same {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestPersonsShape(t *testing.T) {
	d := Persons(PersonsConfig{N: 100, Seed: 1})
	if d.Gold.Len() != 200 { // persons + addresses
		t.Fatalf("gold = %d, want 200", d.Gold.Len())
	}
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o1.NumInstances() != 200 || o2.NumInstances() != 200 {
		t.Fatalf("instances = %d / %d, want 200 each", o1.NumInstances(), o2.NumInstances())
	}
	if o1.NumClasses() != 2 || o2.NumClasses() != 2 {
		t.Fatalf("classes = %d / %d, want 2 each", o1.NumClasses(), o2.NumClasses())
	}
	// Vocabularies must be disjoint (the paper renames everything).
	for _, r := range o1.Relations() {
		name := o1.RelationName(r)
		if _, ok := o2.LookupRelation(name); ok {
			t.Fatalf("shared relation %q", name)
		}
	}
	if len(d.RelGold) < 10 {
		t.Fatalf("relation gold too small: %d", len(d.RelGold))
	}
}

func TestPersonsSSNUnperturbed(t *testing.T) {
	d := Persons(PersonsConfig{N: 40, Seed: 3, TypoRate: 1})
	count := func(ts []rdf.Triple, rel string) map[string]bool {
		vals := map[string]bool{}
		for _, tr := range ts {
			if strings.HasSuffix(tr.Predicate.Value, rel) {
				vals[tr.Object.Value] = true
			}
		}
		return vals
	}
	ssn1 := count(d.Triples1, "soc_sec_id")
	ssn2 := count(d.Triples2, "ssn")
	if len(ssn1) != len(ssn2) {
		t.Fatalf("ssn counts differ: %d vs %d", len(ssn1), len(ssn2))
	}
	for v := range ssn1 {
		if !ssn2[v] {
			t.Fatalf("ssn %q missing from copy 2", v)
		}
	}
}

func TestRestaurantsShape(t *testing.T) {
	d := Restaurants(RestaurantsConfig{N: 64, Seed: 2})
	if d.Gold.Len() != 128 { // restaurants + addresses
		t.Fatalf("gold = %d", d.Gold.Len())
	}
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Extra + chain restaurants exist beyond the matched ones.
	if o1.NumInstances() <= 128 || o2.NumInstances() <= 128 {
		t.Fatalf("extras missing: %d / %d", o1.NumInstances(), o2.NumInstances())
	}
}

func TestRestaurantsPhoneFormatNoise(t *testing.T) {
	d := Restaurants(RestaurantsConfig{N: 100, Seed: 5, PhoneFormatNoise: 1})
	slashes := 0
	for _, tr := range d.Triples2 {
		if strings.HasSuffix(tr.Predicate.Value, "phoneNumber") &&
			strings.Contains(tr.Object.Value, "/") {
			slashes++
		}
	}
	if slashes != 0 {
		t.Fatalf("%d ontology-2 phones kept the slash format", slashes)
	}
	// Under identity normalization the phone literals differ; under
	// AlphaNum they coincide.
	o1, o2, err := d.Build(func(term rdf.Term) string {
		out := ""
		for _, r := range term.Value {
			if r != '/' && r != '-' {
				out += string(r)
			}
		}
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = o1
	_ = o2
}

func TestWorldShape(t *testing.T) {
	d := World(WorldConfig{People: 500, Cities: 50, Companies: 30, Movies: 100, Albums: 80, Books: 80, Seed: 11})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ontology 1 must have the deeper class structure, ontology 2 the
	// richer relation set — the defining asymmetry of the corpus.
	if o1.NumClasses() <= o2.NumClasses() {
		t.Fatalf("class asymmetry lost: %d <= %d", o1.NumClasses(), o2.NumClasses())
	}
	if o2.NumBaseRelations() <= o1.NumBaseRelations() {
		t.Fatalf("relation asymmetry lost: %d <= %d", o2.NumBaseRelations(), o1.NumBaseRelations())
	}
	if d.Gold.Len() == 0 {
		t.Fatal("empty gold")
	}
	// Overlap must be partial: gold smaller than either instance set.
	if d.Gold.Len() >= o1.NumInstances() || d.Gold.Len() >= o2.NumInstances() {
		t.Fatalf("overlap not partial: gold %d, instances %d/%d",
			d.Gold.Len(), o1.NumInstances(), o2.NumInstances())
	}
}

func TestWorldGoldConsistent(t *testing.T) {
	d := World(WorldConfig{People: 300, Cities: 30, Companies: 20, Movies: 60, Albums: 50, Books: 50, Seed: 13})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Gold.Pairs() {
		if _, ok := o1.LookupResource(p[0]); !ok {
			t.Fatalf("gold entity %s missing from o1", p[0])
		}
		if _, ok := o2.LookupResource(p[1]); !ok {
			t.Fatalf("gold entity %s missing from o2", p[1])
		}
	}
}

func TestMoviesShape(t *testing.T) {
	d := Movies(MoviesConfig{People: 400, Movies: 120, Seed: 17})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Gold.Len() == 0 {
		t.Fatal("empty gold")
	}
	// Ontology 2 mimics IMDb: few classes; ontology 1 carries the leaf
	// categories.
	if o1.NumClasses() <= o2.NumClasses() {
		t.Fatalf("class asymmetry lost: %d <= %d", o1.NumClasses(), o2.NumClasses())
	}
	// rdfs:label must exist in both (the baseline depends on it).
	if _, ok := o1.LookupRelation(labelRel1); !ok {
		t.Fatal("no rdfs:label in o1")
	}
	if _, ok := o2.LookupRelation(labelRel1); !ok {
		t.Fatal("no rdfs:label in o2")
	}
}

func TestMoviesFamousBias(t *testing.T) {
	d := Movies(MoviesConfig{People: 600, Movies: 100, Seed: 19})
	// Documentaries must exist on the ontology-2 side only.
	docs := 0
	for _, tr := range d.Triples2 {
		if tr.Predicate.Value == rdf.RDFType && strings.HasSuffix(tr.Object.Value, "Documentary") {
			docs++
		}
	}
	if docs == 0 {
		t.Fatal("no documentaries generated")
	}
}

func TestWriteFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := Persons(PersonsConfig{N: 10, Seed: 23})
	if err := d.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "person1.nt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := store.NewBuilder("p1", store.NewLiterals(), nil)
	if err := b.Load(rdf.NewNTriplesReader(f)); err != nil {
		t.Fatal(err)
	}
	o := b.Build()
	if o.NumInstances() != 20 {
		t.Fatalf("parsed instances = %d, want 20", o.NumInstances())
	}
	goldData, err := os.ReadFile(filepath.Join(dir, "gold.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(goldData), "\n")
	if lines != d.Gold.Len() {
		t.Fatalf("gold.tsv lines = %d, want %d", lines, d.Gold.Len())
	}
}

// Sixteen times the default works exceed the 20,520 random world titles;
// generation must still terminate, and every title must stay unique.
func TestWorldTitlesPastSaturation(t *testing.T) {
	cfg := WorldConfig{Seed: 42, Movies: 16 * 1500, Albums: 16 * 1200, Books: 16 * 1200}.withDefaults()
	w := &worldBuilder{cfg: cfg, r: newRNG(cfg.Seed)}
	w.invent()
	seen := make(map[string]bool, len(w.works))
	for _, wk := range w.works {
		if seen[wk.title] {
			t.Fatalf("duplicate title %q", wk.title)
		}
		seen[wk.title] = true
	}
	if want := cfg.Movies + cfg.Albums + cfg.Books; len(seen) != want {
		t.Fatalf("%d titles, want %d", len(seen), want)
	}
}

// Sixteen times the default movies exceed the 22,800 random movie titles;
// generation must still terminate.
func TestMoviesTitlesPastSaturation(t *testing.T) {
	d := Movies(MoviesConfig{People: 400, Movies: 16 * 1500, Seed: 42})
	if len(d.Triples1) == 0 || len(d.Triples2) == 0 {
		t.Fatal("empty corpus")
	}
}
