package core

import (
	"math"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// pair builds two ontologies from N-Triples documents sharing one literal
// table, as an alignment requires.
func pair(t *testing.T, doc1, doc2 string) (*store.Ontology, *store.Ontology) {
	t.Helper()
	lits := store.NewLiterals()
	build := func(name, doc string) *store.Ontology {
		triples, err := rdf.ParseNTriples(doc)
		if err != nil {
			t.Fatal(err)
		}
		b := store.NewBuilder(name, lits, nil)
		if err := b.AddAll(triples); err != nil {
			t.Fatal(err)
		}
		return b.Build()
	}
	return build("o1", doc1), build("o2", doc2)
}

// key returns the resource key for an IRI string.
func key(iri string) string { return rdf.IRI(iri).Key() }

// assignmentOf returns the maximal assignment of the named o1 instance.
func assignmentOf(t *testing.T, res *Result, iri1 string) (string, float64) {
	t.Helper()
	x1, ok := res.O1.LookupResource(key(iri1))
	if !ok {
		t.Fatalf("%s not in o1", iri1)
	}
	for _, a := range res.Instances {
		if a.X1 == x1 {
			return res.O2.ResourceKey(a.X2), a.P
		}
	}
	return "", 0
}

const o1Email = `
<e:x> <e:email> "x@example.com" .
`

const o2Email = `
<f:x> <f:mail> "x@example.com" .
`

// One shared e-mail via a perfectly inverse-functional relation. First
// iteration: P = 1 - (1-θ)² = 0.19; after the sub-relation pass finds
// P(r⊆r') = P(r'⊆r) = 1, the second iteration yields P = 1.
func TestEmailBridgeHandComputed(t *testing.T) {
	o1, o2 := pair(t, o1Email, o2Email)

	a := New(o1, o2, Config{MaxIterations: 1, Convergence: -1})
	res := a.Run()
	got, p := assignmentOf(t, res, "e:x")
	if got != key("f:x") {
		t.Fatalf("assigned to %q", got)
	}
	want := 1 - (1-0.1)*(1-0.1)
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("iteration-1 probability = %v, want %v", p, want)
	}

	a2 := New(o1, o2, Config{MaxIterations: 3})
	res2 := a2.Run()
	_, p2 := assignmentOf(t, res2, "e:x")
	if p2 != 1 {
		t.Fatalf("converged probability = %v, want 1", p2)
	}
	// The sub-relation scores must be 1 in both directions.
	rels := MaxRelAlignments(res2.Relations12)
	if len(rels) != 2 { // email and email⁻¹
		t.Fatalf("relation alignments = %v", rels)
	}
	for _, ra := range rels {
		if ra.P != 1 {
			t.Errorf("P(%s ⊆ %s) = %v, want 1",
				o1.RelationName(ra.Sub), o2.RelationName(ra.Super), ra.P)
		}
	}
}

// A shared low-inverse-functionality value (a city lived in by many) gives a
// strictly weaker equality than a shared high-inverse-functionality value.
func TestInverseFunctionalityWeighting(t *testing.T) {
	doc1 := `
<e:a> <e:livesIn> <e:london> .
<e:a> <e:email> "a@x.com" .
<e:london> <e:label> "London" .
`
	doc2 := `
<f:a1> <f:city> <f:ldn> .
<f:a2> <f:city> <f:ldn> .
<f:a3> <f:city> <f:ldn> .
<f:a4> <f:city> <f:ldn> .
<f:a1> <f:mail> "a@x.com" .
<f:ldn> <f:name> "London" .
`
	o1, o2 := pair(t, doc1, doc2)
	a := New(o1, o2, Config{MaxIterations: 4})
	res := a.Run()
	got, p := assignmentOf(t, res, "e:a")
	if got != key("f:a1") {
		t.Fatalf("e:a assigned to %q (p=%v)", got, p)
	}
	// a2..a4 share only the city with e:a; their reverse candidates, if any,
	// must score below a1's.
	x1, _ := o1.LookupResource(key("e:a"))
	cands := a.Candidates(x1)
	for _, c := range cands[1:] {
		if c.P >= cands[0].P {
			t.Fatalf("secondary candidate as strong as maximal: %v", cands)
		}
	}
}

// Equation (13): evidence from two independent shared values accumulates:
// P = 1 - (1-p₁)(1-p₂) per the noisy-or.
func TestEvidenceAccumulates(t *testing.T) {
	doc1 := `
<e:x> <e:phone> "123" .
<e:y> <e:phone> "999" .
`
	doc2 := `
<f:x> <f:tel> "123" .
<f:x2> <f:tel> "123" .
`
	// e:x bridges to f:x and f:x2 with one phone statement each; inverse
	// functionality of e:phone is 1, of f:tel is 1/2 (two subjects share
	// "123"... actually fun⁻¹(tel) = #objects/#stmts = 1/2).
	o1, o2 := pair(t, doc1, doc2)
	a := New(o1, o2, Config{MaxIterations: 1, Convergence: -1})
	res := a.Run()
	_, p := assignmentOf(t, res, "e:x")
	// factor = (1 - θ·fun⁻¹(phone)·1)·(1 - θ·fun⁻¹(tel)·1)
	//        = (1 - 0.1)·(1 - 0.1·0.5) = 0.9·0.95
	want := 1 - 0.9*0.95
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("p = %v, want %v", p, want)
	}
	_ = res
}

// Instances with no shared evidence must not be aligned at all.
func TestNoEvidenceNoAlignment(t *testing.T) {
	o1, o2 := pair(t, `<e:x> <e:p> "only-here" .`, `<f:y> <f:q> "only-there" .`)
	res := New(o1, o2, Config{}).Run()
	if len(res.Instances) != 0 {
		t.Fatalf("unexpected alignments: %v", res.Instances)
	}
}

func TestEmptyOntologies(t *testing.T) {
	o1, o2 := pair(t, ``, ``)
	res := New(o1, o2, Config{}).Run()
	if len(res.Instances) != 0 || len(res.Relations12) != 0 || len(res.Classes12) != 0 {
		t.Fatal("empty ontologies should align nothing")
	}
}

func TestMismatchedLiteralTablesPanics(t *testing.T) {
	b1 := store.NewBuilder("o1", store.NewLiterals(), nil)
	b2 := store.NewBuilder("o2", store.NewLiterals(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for distinct literal tables")
		}
	}()
	New(b1.Build(), b2.Build(), Config{})
}

// Class alignment: after instances are matched perfectly, a class whose
// instances all map into c₂ gets P(c₁ ⊆ c₂) = 1; a superclass direction
// yields the inclusion asymmetry of Equation (17).
func TestSubclassAlignment(t *testing.T) {
	doc1 := `
<e:s1> <e:email> "s1@x.com" .
<e:s2> <e:email> "s2@x.com" .
<e:p1> <e:email> "p1@x.com" .
<e:s1> <rdf:type> <e:singer> .
<e:s2> <rdf:type> <e:singer> .
<e:p1> <rdf:type> <e:politician> .
`
	doc2 := `
<f:s1> <f:mail> "s1@x.com" .
<f:s2> <f:mail> "s2@x.com" .
<f:p1> <f:mail> "p1@x.com" .
<f:s1> <rdf:type> <f:person> .
<f:s2> <rdf:type> <f:person> .
<f:p1> <rdf:type> <f:person> .
`
	doc1 = replaceRDFType(doc1)
	doc2 = replaceRDFType(doc2)
	o1, o2 := pair(t, doc1, doc2)
	res := New(o1, o2, Config{MaxIterations: 4}).Run()

	singer, _ := o1.LookupResource(key("e:singer"))
	person, _ := o2.LookupResource(key("f:person"))
	var gotSinger float64
	for _, ca := range res.Classes12 {
		if ca.Sub == singer && ca.Super == person {
			gotSinger = ca.P
		}
	}
	if gotSinger != 1 {
		t.Fatalf("P(singer ⊆ person) = %v, want 1", gotSinger)
	}
	// Reverse: person has 3 instances, 2 map into singer.
	var gotPerson float64
	for _, ca := range res.Classes21 {
		if ca.Sub == person && ca.Super == singer {
			gotPerson = ca.P
		}
	}
	if math.Abs(gotPerson-2.0/3) > 1e-9 {
		t.Fatalf("P(person ⊆ singer) = %v, want 2/3", gotPerson)
	}
}

func replaceRDFType(doc string) string {
	out := ""
	for _, line := range splitLines(doc) {
		out += line + "\n"
	}
	return replaceAll(out, "<rdf:type>", "<"+rdf.RDFType+">")
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func replaceAll(s, old, new string) string {
	for {
		i := indexOf(s, old)
		if i < 0 {
			return s
		}
		s = s[:i] + new + s[i+len(old):]
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Negative evidence (Equation 14): a functional relation with a conflicting
// value must suppress the match relative to Equation (13). The e:y/f:y pair
// matches on both attributes, establishing the born ⊆ birthYear inclusion
// that makes the conflict on e:x/f:x count against the pair.
func TestNegativeEvidenceSuppresses(t *testing.T) {
	doc1 := `
<e:x> <e:name> "John Smith" .
<e:x> <e:born> "1950" .
<e:y> <e:name> "Ada Lovelace" .
<e:y> <e:born> "1815" .
`
	doc2 := `
<f:x> <f:name> "John Smith" .
<f:x> <f:born> "1999" .
<f:y> <f:name> "Ada Lovelace" .
<f:y> <f:born> "1815" .
`
	o1, o2 := pair(t, doc1, doc2)

	plain := New(o1, o2, Config{MaxIterations: 3}).Run()
	_, pPlain := assignmentOf(t, plain, "e:x")
	if pPlain == 0 {
		t.Fatal("positive-only run should align the name match")
	}

	neg := New(o1, o2, Config{MaxIterations: 3, NegativeEvidence: true}).Run()
	_, pNeg := assignmentOf(t, neg, "e:x")
	if pNeg >= pPlain {
		t.Fatalf("negative evidence did not suppress: %v >= %v", pNeg, pPlain)
	}
}

// Negative evidence must leave perfect matches intact.
func TestNegativeEvidenceKeepsConsistentMatch(t *testing.T) {
	doc1 := `
<e:x> <e:name> "Unique Name" .
<e:x> <e:born> "1950" .
`
	doc2 := `
<f:x> <f:name> "Unique Name" .
<f:x> <f:born> "1950" .
`
	o1, o2 := pair(t, doc1, doc2)
	res := New(o1, o2, Config{MaxIterations: 4, NegativeEvidence: true}).Run()
	got, p := assignmentOf(t, res, "e:x")
	if got != key("f:x") || p < 0.5 {
		t.Fatalf("consistent instance lost: %q p=%v", got, p)
	}
}

// θ invariance (Section 6.3): the final sub-relation scores are identical
// for any reasonable bootstrap θ, because iteration 2 recomputes them from
// maximal assignments that θ only scales, not reorders.
func TestThetaInvariance(t *testing.T) {
	doc1 := `
<e:a> <e:email> "a@x.com" .
<e:b> <e:email> "b@x.com" .
<e:a> <e:knows> <e:b> .
`
	doc2 := `
<f:a> <f:mail> "a@x.com" .
<f:b> <f:mail> "b@x.com" .
<f:a> <f:contact> <f:b> .
`
	o1, o2 := pair(t, doc1, doc2)
	var results []map[string]float64
	for _, theta := range []float64{0.001, 0.05, 0.2} {
		res := New(o1, o2, Config{Theta: theta, MaxIterations: 4}).Run()
		scores := map[string]float64{}
		for _, ra := range res.Relations12 {
			scores[o1.RelationName(ra.Sub)+"->"+o2.RelationName(ra.Super)] = ra.P
		}
		results = append(results, scores)
	}
	for i := 1; i < len(results); i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("θ changed the alignment set: %v vs %v", results[0], results[i])
		}
		for k, v := range results[0] {
			if math.Abs(results[i][k]-v) > 1e-9 {
				t.Fatalf("θ changed score of %s: %v vs %v", k, v, results[i][k])
			}
		}
	}
}

// Inverse relations: if o1 says actedIn(person, movie) and o2 says
// starring(movie, person), PARIS must discover actedIn ⊆ starring⁻¹.
func TestInverseRelationAlignment(t *testing.T) {
	doc1 := `
<e:p1> <e:actedIn> <e:m1> .
<e:p2> <e:actedIn> <e:m2> .
<e:p1> <e:email> "p1@x.com" .
<e:p2> <e:email> "p2@x.com" .
<e:m1> <e:title> "Movie One" .
<e:m2> <e:title> "Movie Two" .
`
	doc2 := `
<f:m1> <f:starring> <f:p1> .
<f:m2> <f:starring> <f:p2> .
<f:p1> <f:mail> "p1@x.com" .
<f:p2> <f:mail> "p2@x.com" .
<f:m1> <f:name> "Movie One" .
<f:m2> <f:name> "Movie Two" .
`
	o1, o2 := pair(t, doc1, doc2)
	res := New(o1, o2, Config{MaxIterations: 4}).Run()

	actedIn, _ := o1.LookupRelation("e:actedIn")
	starring, _ := o2.LookupRelation("f:starring")
	found := false
	for _, ra := range res.Relations12 {
		if ra.Sub == actedIn && ra.Super == starring.Inverse() && ra.P > 0.9 {
			found = true
		}
	}
	if !found {
		got, _ := res.Relations12, 0
		t.Fatalf("actedIn ⊆ starring⁻¹ not found; alignments: %v", got)
	}
	// Instances must align despite zero shared relation direction.
	gotM, _ := assignmentOf(t, res, "e:m1")
	if gotM != key("f:m1") {
		t.Fatalf("movie aligned to %q", gotM)
	}
}

// AllEqualities mode must produce (at least) the matches of the default
// maximal-assignment mode on clean data (Section 6.3: "changed the results
// only marginally").
func TestAllEqualitiesMode(t *testing.T) {
	o1, o2 := pair(t, o1Email, o2Email)
	def := New(o1, o2, Config{MaxIterations: 3}).Run()
	all := New(o1, o2, Config{MaxIterations: 3, AllEqualities: true}).Run()
	if len(all.Instances) < len(def.Instances) {
		t.Fatalf("all-equalities lost matches: %d < %d", len(all.Instances), len(def.Instances))
	}
}

// All probabilities everywhere must lie in [0, 1].
func TestProbabilityBounds(t *testing.T) {
	doc1 := `
<e:a> <e:p> "v1" .
<e:a> <e:p> "v2" .
<e:b> <e:p> "v1" .
<e:b> <e:q> <e:a> .
<e:a> <rdftype> <e:c1> .
`
	doc2 := `
<f:a> <f:r> "v1" .
<f:a> <f:r> "v2" .
<f:b> <f:r> "v1" .
<f:b> <f:s> <f:a> .
`
	o1, o2 := pair(t, doc1, doc2)
	res := New(o1, o2, Config{MaxIterations: 5}).Run()
	for _, a := range res.Instances {
		if a.P < 0 || a.P > 1 {
			t.Fatalf("instance probability out of bounds: %v", a)
		}
	}
	for _, ra := range append(res.Relations12, res.Relations21...) {
		if ra.P < 0 || ra.P > 1 {
			t.Fatalf("relation probability out of bounds: %v", ra)
		}
	}
	for _, ca := range append(res.Classes12, res.Classes21...) {
		if ca.P < 0 || ca.P > 1 {
			t.Fatalf("class probability out of bounds: %v", ca)
		}
	}
}

// The iteration log must be populated and convergence reached on stable
// data.
func TestIterationStatsAndConvergence(t *testing.T) {
	o1, o2 := pair(t, o1Email, o2Email)
	var seen int
	cfg := Config{
		MaxIterations: 8,
		OnIteration:   func(it int, a *Aligner) { seen++ },
	}
	a := New(o1, o2, cfg)
	res := a.Run()
	if len(res.Iterations) == 0 || seen != len(res.Iterations) {
		t.Fatalf("iterations: %d logged, %d callbacks", len(res.Iterations), seen)
	}
	last := res.Iterations[len(res.Iterations)-1]
	if last.ChangedFraction >= DefaultConvergence {
		t.Fatalf("did not converge: %+v", last)
	}
	if len(res.Iterations) == 8 {
		t.Fatal("used all iterations; expected early convergence")
	}
	if s := last.String(); s == "" {
		t.Fatal("empty stats string")
	}
}

// Ties in the maximal assignment are broken deterministically (lowest ID).
func TestMaximalAssignmentTieBreak(t *testing.T) {
	doc1 := `<e:x> <e:p> "shared" .`
	doc2 := `
<f:a> <f:q> "shared" .
<f:b> <f:q> "shared" .
`
	o1, o2 := pair(t, doc1, doc2)
	a := New(o1, o2, Config{MaxIterations: 1, Convergence: -1})
	res := a.Run()
	got, _ := assignmentOf(t, res, "e:x")
	if got != key("f:a") && got != key("f:b") {
		t.Fatalf("assigned to %q", got)
	}
	// Re-running must give the same arbitrary choice.
	res2 := New(o1, o2, Config{MaxIterations: 1, Convergence: -1}).Run()
	got2, _ := assignmentOf(t, res2, "e:x")
	if got != got2 {
		t.Fatal("tie broken non-deterministically")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Theta != DefaultTheta || c.MaxIterations != DefaultMaxIterations ||
		c.Convergence != DefaultConvergence || c.PairLimit != DefaultPairLimit ||
		c.HubLimit != DefaultHubLimit || c.Workers < 1 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	neg := Config{PairLimit: -1, HubLimit: -1}.withDefaults()
	if neg.PairLimit <= DefaultPairLimit || neg.HubLimit <= DefaultHubLimit {
		t.Fatal("negative caps should disable the limits")
	}
}

func TestResultHelpers(t *testing.T) {
	o1, o2 := pair(t, o1Email, o2Email)
	res := New(o1, o2, Config{MaxIterations: 3}).Run()
	m := res.InstanceMap()
	if m[key("e:x")] != key("f:x") {
		t.Fatalf("InstanceMap = %v", m)
	}
	if res.String() == "" {
		t.Fatal("empty result string")
	}
	maxed := MaxRelAlignments(res.Relations12)
	seen := map[store.Relation]bool{}
	for _, ra := range maxed {
		if seen[ra.Sub] {
			t.Fatal("MaxRelAlignments returned duplicate sub")
		}
		seen[ra.Sub] = true
	}
	filtered := FilterClassAlignments([]ClassAlignment{{P: 0.5}, {P: 0.2}}, 0.4)
	if len(filtered) != 1 {
		t.Fatalf("FilterClassAlignments = %v", filtered)
	}
}
