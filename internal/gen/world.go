package gen

import (
	"fmt"

	"repro/internal/eval"
)

// WorldConfig scales the YAGO-vs-DBpedia-style corpus of Section 6.4: one
// synthetic world sampled into two large ontologies with independently
// designed schemas. Ontology 1 ("ykb") has a deep, fine-grained taxonomy and
// few relations; ontology 2 ("dkb") has a flat taxonomy and many fine-grained
// relations, several of which are inverted or split versions of ykb's.
type WorldConfig struct {
	// People, Cities, Companies, Movies, Albums, Books size the world.
	// Zeros mean 6000 / 250 / 200 / 1500 / 1200 / 1200.
	People, Cities, Companies, Movies, Albums, Books int
	// Seed drives all randomness.
	Seed int64
	// Present1/Present2 are the probabilities that a world entity appears
	// in each ontology (the paper's corpora share only half their
	// instances). Zeros mean 0.85 / 0.80.
	Present1, Present2 float64
	// KeepFact1/KeepFact2 are the per-fact emission probabilities, the
	// "statements about the instances differ" noise. Zeros mean 0.85 /
	// 0.70.
	KeepFact1, KeepFact2 float64
}

func (c WorldConfig) withDefaults() WorldConfig {
	setInt := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	setInt(&c.People, 6000)
	setInt(&c.Cities, 250)
	setInt(&c.Companies, 200)
	setInt(&c.Movies, 1500)
	setInt(&c.Albums, 1200)
	setInt(&c.Books, 1200)
	setF := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	setF(&c.Present1, 0.85)
	setF(&c.Present2, 0.80)
	setF(&c.KeepFact1, 0.85)
	setF(&c.KeepFact2, 0.70)
	return c
}

// worldPerson is one ground-truth person of the synthetic world.
type worldPerson struct {
	name       string
	birthDate  string
	birthCity  int
	liveCity   int
	country    int
	country2   int // -1 unless dual citizen
	profession string
	spouse     int // -1 if none
	children   []int
	almaMater  int // university pool index, -1 if none
	employer   int // company index, -1 if none
	prize      int // prize pool index, -1 if none
}

type worldWork struct {
	kind    string // "movie", "album", "book"
	title   string
	year    string
	creator int // person index (director for movies)
	actors  []int
}

// worldBuilder carries the state of one World generation.
type worldBuilder struct {
	cfg  WorldConfig
	r    rng
	s1   *tripleSink
	s2   *tripleSink
	gold *eval.Gold

	in1, in2 map[string]bool // entity local-name presence per ontology

	persons []worldPerson
	cityPop []string // population literal per city
	cityCtr []int    // country per city
	works   []worldWork
}

// World generates the corpus.
func World(cfg WorldConfig) *Dataset {
	cfg = cfg.withDefaults()
	w := &worldBuilder{
		cfg:  cfg,
		r:    newRNG(cfg.Seed),
		s1:   newSink("http://ykb.example.org/"),
		s2:   newSink("http://dkb.example.org/"),
		gold: eval.NewGold(),
		in1:  map[string]bool{},
		in2:  map[string]bool{},
	}
	w.invent()
	w.declareSchemas()
	w.emitPlaces()
	w.emitOrganizations()
	w.emitPeople()
	w.emitWorks()
	return &Dataset{
		Name1:     "ykb",
		Name2:     "dkb",
		Triples1:  w.s1.triples,
		Triples2:  w.s2.triples,
		Gold:      w.gold,
		RelGold:   w.relGold(),
		ClassGold: w.classGold(),
	}
}

// invent rolls the ground-truth world.
func (w *worldBuilder) invent() {
	r := w.r
	w.cityPop = make([]string, w.cfg.Cities)
	w.cityCtr = make([]int, w.cfg.Cities)
	for i := range w.cityPop {
		w.cityPop[i] = fmt.Sprintf("%d", 1000+r.Intn(8000000))
		w.cityCtr[i] = r.Intn(len(countries))
	}
	w.persons = make([]worldPerson, w.cfg.People)
	for i := range w.persons {
		p := worldPerson{
			name:       r.personName(),
			birthDate:  fmt.Sprintf("1%03d-%02d-%02d", 850+r.Intn(150), 1+r.Intn(12), 1+r.Intn(28)),
			birthCity:  r.Intn(w.cfg.Cities),
			liveCity:   r.Intn(w.cfg.Cities),
			profession: r.pick(professions),
			spouse:     -1,
			almaMater:  -1,
			employer:   -1,
			prize:      -1,
		}
		p.country = w.cityCtr[p.birthCity]
		p.country2 = -1
		if r.chance(0.05) {
			p.country2 = r.Intn(len(countries))
		}
		if r.chance(0.4) {
			p.almaMater = r.Intn(len(universities))
		}
		if r.chance(0.3) {
			p.employer = r.Intn(w.cfg.Companies)
		}
		if r.chance(0.1) {
			p.prize = r.Intn(len(prizes))
		}
		w.persons[i] = p
	}
	// Spouses: pair adjacent indices with some probability.
	for i := 0; i+1 < len(w.persons); i += 2 {
		if r.chance(0.35) {
			w.persons[i].spouse = i + 1
			w.persons[i+1].spouse = i
		}
	}
	// Children: link to persons with higher index.
	for i := range w.persons {
		if r.chance(0.25) {
			kid := i + 1 + r.Intn(50)
			if kid < len(w.persons) {
				w.persons[i].children = append(w.persons[i].children, kid)
			}
		}
	}
	// Works.
	// The random titles run out at 2·|words|·|nouns| bases with eight
	// sequel numbers each; past that point a running number, beyond any
	// sequel number, keeps the titles unique.
	titleUsed := map[string]bool{}
	maxTitles := 2 * len(movieWords) * len(movieNouns) * 9
	mkTitle := func() string {
		if len(titleUsed) >= maxTitles {
			t := fmt.Sprintf("%s %s %d", r.pick(movieWords), r.pick(movieNouns), len(titleUsed))
			titleUsed[t] = true
			return t
		}
		for {
			t := "The " + r.pick(movieWords) + " " + r.pick(movieNouns)
			if r.chance(0.3) {
				t = r.pick(movieWords) + " " + r.pick(movieNouns)
			}
			if !titleUsed[t] {
				titleUsed[t] = true
				return t
			}
			t += fmt.Sprintf(" %d", 2+r.Intn(8)) // sequels disambiguate
			if !titleUsed[t] {
				titleUsed[t] = true
				return t
			}
		}
	}
	// Creators and actors are prolific: a small sub-population carries many
	// works each, so fun(created) and fun(actedIn) are realistically low
	// and sharing a creator is weak evidence of work identity.
	numCreators := len(w.persons)/25 + 1
	numActors := len(w.persons)/8 + 1
	addWork := func(kind string, n int) {
		for i := 0; i < n; i++ {
			wk := worldWork{
				kind:    kind,
				title:   mkTitle(),
				year:    fmt.Sprintf("%d", 1920+r.Intn(100)),
				creator: r.Intn(numCreators),
			}
			if kind == "movie" {
				cast := 2 + r.Intn(5)
				for j := 0; j < cast; j++ {
					wk.actors = append(wk.actors, numCreators+r.Intn(numActors))
				}
			}
			w.works = append(w.works, wk)
		}
	}
	addWork("movie", w.cfg.Movies)
	addWork("album", w.cfg.Albums)
	addWork("book", w.cfg.Books)
}

// pres rolls and caches presence of a world entity in each ontology.
func (w *worldBuilder) pres(local string) (bool, bool) {
	if _, ok := w.in1[local]; !ok {
		w.in1[local] = w.r.chance(w.cfg.Present1)
		w.in2[local] = w.r.chance(w.cfg.Present2)
	}
	return w.in1[local], w.in2[local]
}

// has1 and has2 report (rolling if needed) whether the entity identified by
// its ontology-1 local name is present in the respective ontology. Facts may
// only reference present entities, or absent entities would leak back in and
// poison the gold standard.
func (w *worldBuilder) has1(local string) bool { in1, _ := w.pres(local); return in1 }
func (w *worldBuilder) has2(local string) bool { _, in2 := w.pres(local); return in2 }

// emitPair registers the gold pair when the entity is in both ontologies.
func (w *worldBuilder) emitPair(l1, l2 string) {
	w.gold.Add(w.s1.key(l1), w.s2.key(l2))
}

// fact1 and fact2 emit a fact with per-side dropout.
func (w *worldBuilder) fact1(subj, rel, obj string) {
	if w.r.chance(w.cfg.KeepFact1) {
		w.s1.fact(subj, rel, obj)
	}
}
func (w *worldBuilder) lit1(subj, rel, v string) {
	if w.r.chance(w.cfg.KeepFact1) {
		w.s1.lit(subj, rel, v)
	}
}
func (w *worldBuilder) fact2(subj, rel, obj string) {
	if w.r.chance(w.cfg.KeepFact2) {
		w.s2.fact(subj, rel, obj)
	}
}
func (w *worldBuilder) lit2(subj, rel, v string) {
	if w.r.chance(w.cfg.KeepFact2) {
		w.s2.lit(subj, rel, v)
	}
}

// declareSchemas emits the class hierarchies. Ontology 1 is deep: base
// classes plus generated leaf categories in wikicategory style. Ontology 2
// is flat with a handful of broad classes.
func (w *worldBuilder) declareSchemas() {
	// Ontology 1 taxonomy.
	for _, p := range professions {
		w.s1.subclass("wordnet_"+p, "wordnet_person")
	}
	w.s1.subclass("wordnet_city", "yagoGeoEntity")
	w.s1.subclass("wordnet_country", "yagoGeoEntity")
	w.s1.subclass("wordnet_university", "wordnet_organization")
	w.s1.subclass("wordnet_company", "wordnet_organization")
	for _, k := range []string{"movie", "album", "book"} {
		w.s1.subclass("wordnet_"+k, "wordnet_work")
	}
	// Leaf categories, declared lazily below via typed statements plus
	// these subclass edges.
	for ci := range make([]struct{}, w.cfg.Cities) {
		w.s1.subclass(catPeopleFrom(ci), "wordnet_person")
	}
	for _, prof := range professions {
		for ctr := range countries {
			w.s1.subclass(catProfFrom(prof, ctr), "wordnet_"+prof)
		}
	}
	// Ontology 2 flat taxonomy.
	w.s2.subclass("Artist", "Person")
	w.s2.subclass("Settlement", "Place")
	w.s2.subclass("Country", "Place")
	w.s2.subclass("EducationalInstitution", "Organisation")
	w.s2.subclass("Company", "Organisation")
	for _, k := range []string{"Film", "MusicalWork", "WrittenWork"} {
		w.s2.subclass(k, "Work")
	}
}

func catPeopleFrom(city int) string { return fmt.Sprintf("wikicategory_People_from_city%03d", city) }
func catProfFrom(prof string, ctr int) string {
	return fmt.Sprintf("wikicategory_%s_%ss", countries[ctr], prof)
}

func (w *worldBuilder) emitPlaces() {
	for ci := 0; ci < w.cfg.Cities; ci++ {
		l1 := fmt.Sprintf("city%03d", ci)
		l2 := fmt.Sprintf("City_%03d", ci)
		in1, in2 := w.pres(l1)
		name := cities[ci%len(cities)] + fmt.Sprintf(" %d", ci/len(cities))
		if in1 {
			w.s1.typed(l1, "wordnet_city")
			w.s1.litIRIRel(l1, labelRel1, name)
			w.lit1(l1, "hasPopulation", w.cityPop[ci])
			if w.has1(countryLocal1(w.cityCtr[ci])) {
				w.fact1(l1, "isLocatedIn", countryLocal1(w.cityCtr[ci]))
			}
		}
		if in2 {
			w.s2.typed(l2, "Settlement")
			w.lit2(l2, "name", name)
			w.lit2(l2, "populationTotal", w.cityPop[ci])
			if w.has2(countryLocal1(w.cityCtr[ci])) {
				w.fact2(l2, "country", countryLocal2(w.cityCtr[ci]))
			}
		}
		if in1 && in2 {
			w.emitPair(l1, l2)
		}
	}
	for ctr := range countries {
		l1, l2 := countryLocal1(ctr), countryLocal2(ctr)
		in1, in2 := w.pres(l1)
		if in1 {
			w.s1.typed(l1, "wordnet_country")
			w.s1.litIRIRel(l1, labelRel1, countries[ctr])
		}
		if in2 {
			w.s2.typed(l2, "Country")
			w.lit2(l2, "name", countries[ctr])
		}
		if in1 && in2 {
			w.emitPair(l1, l2)
		}
	}
}

func countryLocal1(i int) string { return "country_" + countries[i] }
func countryLocal2(i int) string { return "Ctry_" + countries[i] }

func (w *worldBuilder) emitOrganizations() {
	for ui := range universities {
		l1 := fmt.Sprintf("univ%02d", ui)
		l2 := fmt.Sprintf("Uni_%02d", ui)
		in1, in2 := w.pres(l1)
		if in1 {
			w.s1.typed(l1, "wordnet_university")
			w.s1.litIRIRel(l1, labelRel1, universities[ui])
		}
		if in2 {
			w.s2.typed(l2, "EducationalInstitution")
			w.lit2(l2, "name", universities[ui])
		}
		if in1 && in2 {
			w.emitPair(l1, l2)
		}
	}
	for ci := 0; ci < w.cfg.Companies; ci++ {
		l1 := fmt.Sprintf("co%03d", ci)
		l2 := fmt.Sprintf("Corp_%03d", ci)
		in1, in2 := w.pres(l1)
		name := w.r.pick(movieWords) + " " + w.r.pick([]string{"Corp", "Industries", "Group", "Systems", "Labs"})
		year := fmt.Sprintf("%d", 1880+w.r.Intn(140))
		city := w.r.Intn(w.cfg.Cities)
		if in1 {
			w.s1.typed(l1, "wordnet_company")
			w.s1.litIRIRel(l1, labelRel1, name+fmt.Sprintf(" %02d", ci%97))
			w.lit1(l1, "wasFoundedOnDate", year)
			if w.has1(fmt.Sprintf("city%03d", city)) {
				w.fact1(l1, "isLocatedIn", fmt.Sprintf("city%03d", city))
			}
		}
		if in2 {
			w.s2.typed(l2, "Company")
			w.lit2(l2, "name", name+fmt.Sprintf(" %02d", ci%97))
			w.lit2(l2, "foundingYear", year)
			if w.has2(fmt.Sprintf("city%03d", city)) {
				w.fact2(l2, "location", fmt.Sprintf("City_%03d", city))
			}
		}
		if in1 && in2 {
			w.emitPair(l1, l2)
		}
	}
	for pi := range prizes {
		l1 := fmt.Sprintf("prize%02d", pi)
		l2 := fmt.Sprintf("Award_%02d", pi)
		in1, in2 := w.pres(l1)
		// A prize's name is its only triple; it must not be dropped, or a
		// gold entity would have no statements at all.
		if in1 {
			w.s1.litIRIRel(l1, labelRel1, prizes[pi])
		}
		if in2 {
			w.s2.lit(l2, "name", prizes[pi])
		}
		if in1 && in2 {
			w.emitPair(l1, l2)
		}
	}
}

const labelRel1 = "http://www.w3.org/2000/01/rdf-schema#label"

func personLocal1(i int) string { return fmt.Sprintf("p%05d", i) }
func personLocal2(i int) string { return fmt.Sprintf("Pers_%05d", i) }

func (w *worldBuilder) emitPeople() {
	for i, p := range w.persons {
		l1, l2 := personLocal1(i), personLocal2(i)
		in1, in2 := w.pres(l1)
		if in1 {
			w.emitPerson1(l1, i, p)
		}
		if in2 {
			w.emitPerson2(l2, i, p)
		}
		if in1 && in2 {
			w.emitPair(l1, l2)
		}
	}
}

func (w *worldBuilder) emitPerson1(l1 string, i int, p worldPerson) {
	w.s1.typed(l1, "wordnet_"+p.profession)
	w.s1.typed(l1, catPeopleFrom(p.birthCity))
	w.s1.typed(l1, catProfFrom(p.profession, p.country))
	// Many ontology-1 labels keep a Wikipedia-style disambiguation suffix
	// that ontology 2 strips; the naive string identity of Section 5.3
	// cannot bridge those, the paper's main recall loss.
	label := p.name
	if w.r.chance(0.45) {
		label = p.name + " (" + p.profession + ")"
	}
	w.s1.litIRIRel(l1, labelRel1, label)
	w.lit1(l1, "wasBornOnDate", p.birthDate)
	if w.has1(fmt.Sprintf("city%03d", p.birthCity)) {
		w.fact1(l1, "wasBornIn", fmt.Sprintf("city%03d", p.birthCity))
	}
	if w.has1(fmt.Sprintf("city%03d", p.liveCity)) {
		w.fact1(l1, "livesIn", fmt.Sprintf("city%03d", p.liveCity))
	}
	if w.has1(countryLocal1(p.country)) {
		w.fact1(l1, "isCitizenOf", countryLocal1(p.country))
	}
	if p.country2 >= 0 && w.has1(countryLocal1(p.country2)) {
		w.fact1(l1, "isCitizenOf", countryLocal1(p.country2))
	}
	if p.spouse >= 0 && w.has1(personLocal1(p.spouse)) {
		w.fact1(l1, "isMarriedTo", personLocal1(p.spouse))
	}
	for _, kid := range p.children {
		if w.has1(personLocal1(kid)) {
			w.fact1(l1, "hasChild", personLocal1(kid))
		}
	}
	if p.almaMater >= 0 && w.has1(fmt.Sprintf("univ%02d", p.almaMater)) {
		w.fact1(l1, "graduatedFrom", fmt.Sprintf("univ%02d", p.almaMater))
	}
	if p.employer >= 0 && w.has1(fmt.Sprintf("co%03d", p.employer)) {
		w.fact1(l1, "worksAt", fmt.Sprintf("co%03d", p.employer))
	}
	if p.prize >= 0 && w.has1(fmt.Sprintf("prize%02d", p.prize)) {
		w.fact1(l1, "hasWonPrize", fmt.Sprintf("prize%02d", p.prize))
	}
}

func (w *worldBuilder) emitPerson2(l2 string, i int, p worldPerson) {
	w.s2.typed(l2, "Person")
	if p.profession == "singer" || p.profession == "writer" ||
		p.profession == "painter" || p.profession == "composer" {
		w.s2.typed(l2, "Artist")
	}
	// A long tail of ontology-2 persons has no infobox: name and type
	// only. Together with the suffixed ontology-1 labels this drives the
	// paper's recall gap between all entities (73%) and entities with more
	// than 10 facts (85%).
	w.s2.lit(l2, "name", p.name)
	if w.r.chance(0.45) {
		return
	}
	w.lit2(l2, "birthName", p.name)
	bd := p.birthDate
	if w.r.chance(0.55) {
		bd = reformatDate(bd)
	}
	w.lit2(l2, "birthDate", bd)
	if w.has2(fmt.Sprintf("city%03d", p.birthCity)) {
		w.fact2(l2, "birthPlace", fmt.Sprintf("City_%03d", p.birthCity))
	}
	if w.has2(fmt.Sprintf("city%03d", p.liveCity)) {
		w.fact2(l2, "residence", fmt.Sprintf("City_%03d", p.liveCity))
	}
	if w.has2(countryLocal1(p.country)) {
		w.fact2(l2, "nationality", countryLocal2(p.country))
	}
	if p.country2 >= 0 && w.has2(countryLocal1(p.country2)) {
		w.fact2(l2, "nationality", countryLocal2(p.country2))
	}
	if p.spouse >= 0 && w.has2(personLocal1(p.spouse)) && w.r.chance(0.5) {
		// dbp:spouse is emitted in a random direction (the paper finds
		// isMarriedTo aligned with both dbp:spouse and dbp:spouse⁻¹).
		w.fact2(l2, "spouse", personLocal2(p.spouse))
	}
	for _, kid := range p.children {
		if !w.has2(personLocal1(kid)) {
			continue
		}
		// dbp:parent runs child -> parent (inverse of y:hasChild); a
		// minority of records also carry dbp:child.
		w.fact2(personLocal2(kid), "parent", l2)
		if w.r.chance(0.3) {
			w.fact2(l2, "child", personLocal2(kid))
		}
	}
	if p.almaMater >= 0 && w.has2(fmt.Sprintf("univ%02d", p.almaMater)) {
		w.fact2(l2, "almaMater", fmt.Sprintf("Uni_%02d", p.almaMater))
	}
	if p.employer >= 0 && w.has2(fmt.Sprintf("co%03d", p.employer)) {
		w.fact2(l2, "employer", fmt.Sprintf("Corp_%03d", p.employer))
	}
	if p.prize >= 0 && w.has2(fmt.Sprintf("prize%02d", p.prize)) {
		w.fact2(l2, "award", fmt.Sprintf("Award_%02d", p.prize))
	}
}

var workClass2 = map[string]string{
	"movie": "Film", "album": "MusicalWork", "book": "WrittenWork",
}

var workLocal2Prefix = map[string]string{
	"movie": "Movie_", "album": "Album_", "book": "Book_",
}

func (w *worldBuilder) emitWorks() {
	counters := map[string]int{}
	for _, wk := range w.works {
		idx := counters[wk.kind]
		counters[wk.kind]++
		l1 := fmt.Sprintf("%s%04d", wk.kind, idx)
		l2 := fmt.Sprintf("%s%04d", workLocal2Prefix[wk.kind], idx)
		// Both corpora derive from the same encyclopedia: a work present in
		// one is nearly always present in the other, so one-sided works
		// (which would attract weak shared-creator matches) are rare.
		in1 := w.r.chance(w.cfg.Present1)
		in2 := w.r.chance(0.70)
		if in1 {
			in2 = w.r.chance(0.95)
		}
		w.in1[l1], w.in2[l1] = in1, in2
		if in1 {
			w.s1.typed(l1, "wordnet_"+wk.kind)
			w.s1.litIRIRel(l1, labelRel1, wk.title)
			w.lit1(l1, "wasCreatedOnDate", wk.year)
			if w.has1(personLocal1(wk.creator)) {
				w.fact1(personLocal1(wk.creator), "created", l1)
			}
			for _, actor := range wk.actors {
				if w.has1(personLocal1(actor)) {
					w.fact1(personLocal1(actor), "actedIn", l1)
				}
			}
		}
		if in2 {
			w.s2.typed(l2, workClass2[wk.kind])
			switch wk.kind {
			case "movie":
				if w.has2(personLocal1(wk.creator)) {
					w.fact2(l2, "director", personLocal2(wk.creator))
				}
				for _, actor := range wk.actors {
					if w.has2(personLocal1(actor)) {
						w.fact2(l2, "starring", personLocal2(actor))
					}
				}
			case "album":
				if w.has2(personLocal1(wk.creator)) {
					w.fact2(l2, "artist", personLocal2(wk.creator))
				}
			case "book":
				if w.has2(personLocal1(wk.creator)) {
					w.fact2(l2, "author", personLocal2(wk.creator))
				}
			}
			w.s2.lit(l2, "name", wk.title)
			w.lit2(l2, "releaseYear", wk.year)
		}
		if in1 && in2 {
			w.emitPair(l1, l2)
		}
	}
}

// relGold records the base relation correspondences; "⁻¹" marks inverted
// pairs, mirroring Table 4's alignments.
func (w *worldBuilder) relGold() map[string]string {
	inv := func(local string) string { return w.s2.ns + local + "⁻¹" }
	return map[string]string{
		labelRel1:                    w.s2.ns + "name",
		w.s1.ns + "wasBornOnDate":    w.s2.ns + "birthDate",
		w.s1.ns + "wasBornIn":        w.s2.ns + "birthPlace",
		w.s1.ns + "livesIn":          w.s2.ns + "residence",
		w.s1.ns + "isCitizenOf":      w.s2.ns + "nationality",
		w.s1.ns + "isMarriedTo":      w.s2.ns + "spouse",
		w.s1.ns + "hasChild":         inv("parent"),
		w.s1.ns + "graduatedFrom":    w.s2.ns + "almaMater",
		w.s1.ns + "worksAt":          w.s2.ns + "employer",
		w.s1.ns + "hasWonPrize":      w.s2.ns + "award",
		w.s1.ns + "actedIn":          inv("starring"),
		w.s1.ns + "isLocatedIn":      w.s2.ns + "country",
		w.s1.ns + "hasPopulation":    w.s2.ns + "populationTotal",
		w.s1.ns + "wasFoundedOnDate": w.s2.ns + "foundingYear",
		w.s1.ns + "wasCreatedOnDate": w.s2.ns + "releaseYear",
		w.s1.ns + "created":          inv("author"), // also artist⁻¹/director⁻¹
	}
}

func (w *worldBuilder) classGold() map[string]string {
	m := map[string]string{
		w.s1.ns + "wordnet_person":       w.s2.ns + "Person",
		w.s1.ns + "wordnet_city":         w.s2.ns + "Settlement",
		w.s1.ns + "wordnet_country":      w.s2.ns + "Country",
		w.s1.ns + "wordnet_university":   w.s2.ns + "EducationalInstitution",
		w.s1.ns + "wordnet_company":      w.s2.ns + "Company",
		w.s1.ns + "wordnet_organization": w.s2.ns + "Organisation",
		w.s1.ns + "wordnet_movie":        w.s2.ns + "Film",
		w.s1.ns + "wordnet_album":        w.s2.ns + "MusicalWork",
		w.s1.ns + "wordnet_book":         w.s2.ns + "WrittenWork",
		w.s1.ns + "wordnet_work":         w.s2.ns + "Work",
		w.s1.ns + "yagoGeoEntity":        w.s2.ns + "Place",
	}
	for _, p := range professions {
		target := w.s2.ns + "Person"
		if p == "singer" || p == "writer" || p == "painter" || p == "composer" {
			target = w.s2.ns + "Artist"
		}
		m[w.s1.ns+"wordnet_"+p] = target
	}
	return m
}
