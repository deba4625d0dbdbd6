package gen

import (
	"fmt"
	"strings"

	"repro/internal/eval"
)

// MoviesConfig scales the YAGO-vs-IMDb-style corpus of Section 6.4. The
// generator reproduces the paper's documented error sources: near-duplicate
// works (a feature version of a TV series with the same cast and crew),
// transliterated titles, and a "famous people" bias — ontology 1 contains
// mostly famous people, many of whom appear in some documentary on the
// ontology-2 side.
type MoviesConfig struct {
	// People and Movies size the shared world. Zeros mean 4000 / 1500.
	People, Movies int
	// Seed drives all randomness.
	Seed int64
	// VariantRate is the fraction of movies that have a closely related
	// but distinct variant work on the ontology-2 side (feature cut of a
	// series). Zero means 0.02.
	VariantRate float64
	// TranslitRate is the fraction of shared movies whose title is word-
	// swapped on the ontology-2 side ("Sugata Sanshiro" vs "Sanshiro
	// Sugata"). Zero means 0.03.
	TranslitRate float64
	// FamousExtra is the fraction of ontology-1-only famous people that
	// nevertheless appear in an ontology-2 documentary. Zero means 0.3.
	FamousExtra float64
	// Present1/Present2 are entity presence probabilities as in World.
	// Zeros mean 0.80 / 0.85.
	Present1, Present2 float64
	// KeepFact1/KeepFact2 are per-fact emission probabilities. Zeros mean
	// 0.80 / 0.85.
	KeepFact1, KeepFact2 float64
}

func (c MoviesConfig) withDefaults() MoviesConfig {
	if c.People == 0 {
		c.People = 4000
	}
	if c.Movies == 0 {
		c.Movies = 1500
	}
	setF := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	setF(&c.VariantRate, 0.02)
	setF(&c.TranslitRate, 0.03)
	setF(&c.FamousExtra, 0.3)
	setF(&c.Present1, 0.80)
	setF(&c.Present2, 0.85)
	setF(&c.KeepFact1, 0.80)
	setF(&c.KeepFact2, 0.85)
	return c
}

type moviePerson struct {
	name      string
	birthDate string
	deathDate string // "" if alive
	birthCity int
	role      string // "actor", "director", "writer", "producer", "famous"
}

type movieWork struct {
	title    string
	year     string
	genre    string
	kind     string // "movie" or "series"
	director int
	writer   int
	cast     []int
}

// Movies generates the movie corpus. Ontology 1 ("ykb-film") is the
// general-purpose KB view: rich labels, birth facts, prizes, and only
// acted-in/created film links. Ontology 2 ("ikb") is the movie-database
// view: 15 classes, 24 relations, exhaustive film credits.
func Movies(cfg MoviesConfig) *Dataset {
	cfg = cfg.withDefaults()
	r := newRNG(cfg.Seed)
	s1 := newSink("http://ykbfilm.example.org/")
	s2 := newSink("http://ikb.example.org/")
	gold := eval.NewGold()

	// ---- Invent the world. ----
	people := make([]moviePerson, cfg.People)
	for i := range people {
		p := moviePerson{
			name:      r.personName(),
			birthDate: fmt.Sprintf("1%03d-%02d-%02d", 870+r.Intn(130), 1+r.Intn(12), 1+r.Intn(28)),
			birthCity: r.Intn(len(cities)),
		}
		if r.chance(0.25) {
			p.deathDate = fmt.Sprintf("%d-%02d-%02d", 1950+r.Intn(70), 1+r.Intn(12), 1+r.Intn(28))
		}
		roll := r.Float64()
		switch {
		case roll < 0.55:
			p.role = "actor"
		case roll < 0.62:
			p.role = "director"
		case roll < 0.68:
			p.role = "writer"
		case roll < 0.73:
			p.role = "producer"
		default:
			p.role = "famous" // politician, athlete, ... — not film people
		}
		people[i] = p
	}
	// Credits draw from the *working* sub-population of each role: a few
	// hundred prolific actors and directors carry most films, keeping
	// fun(actedIn) and fun(directed) realistically low.
	roleIdx := map[string][]int{}
	for i, p := range people {
		roleIdx[p.role] = append(roleIdx[p.role], i)
	}
	pickRole := func(role string) int {
		pool := roleIdx[role]
		working := len(pool) / 3
		if working < 1 {
			working = len(pool)
		}
		return pool[r.Intn(working)]
	}
	// The random titles run out at 2·|words|·|nouns| bases with nine
	// sequel numbers each; past that point a running number, beyond any
	// sequel number, keeps the titles unique.
	titleUsed := map[string]bool{}
	maxTitles := 2 * len(movieWords) * len(movieNouns) * 10
	works := make([]movieWork, cfg.Movies)
	for i := range works {
		var title string
		for len(titleUsed) < maxTitles {
			title = r.pick(movieWords) + " " + r.pick(movieNouns)
			if r.chance(0.4) {
				title = "The " + title
			}
			if !titleUsed[title] {
				break
			}
			title += fmt.Sprintf(" %d", 2+r.Intn(9))
			if !titleUsed[title] {
				break
			}
		}
		if len(titleUsed) >= maxTitles {
			title = fmt.Sprintf("%s %s %d", r.pick(movieWords), r.pick(movieNouns), len(titleUsed))
		}
		titleUsed[title] = true
		wk := movieWork{
			title:    title,
			year:     fmt.Sprintf("%d", 1925+r.Intn(95)),
			genre:    r.pick(genres),
			kind:     "movie",
			director: pickRole("director"),
			writer:   pickRole("writer"),
		}
		if r.chance(0.12) {
			wk.kind = "series"
		}
		cast := 2 + r.Intn(6)
		for j := 0; j < cast; j++ {
			wk.cast = append(wk.cast, pickRole("actor"))
		}
		works[i] = wk
	}

	// ---- Presence. ----
	in1p := make([]bool, len(people))
	in2p := make([]bool, len(people))
	for i, p := range people {
		in1p[i] = r.chance(cfg.Present1)
		in2p[i] = r.chance(cfg.Present2)
		if p.role == "famous" {
			// Famous non-film people: always in the general KB; in the
			// movie DB only via documentaries.
			in1p[i] = true
			in2p[i] = r.chance(cfg.FamousExtra)
		}
	}
	// The movie database is near-complete on works: a film known to the
	// general KB is almost always in it (the paper's yago movies come from
	// film Wikipedia pages, which IMDb covers).
	in1w := make([]bool, len(works))
	in2w := make([]bool, len(works))
	for i := range works {
		in1w[i] = r.chance(cfg.Present1)
		if in1w[i] {
			in2w[i] = r.chance(0.97)
		} else {
			in2w[i] = r.chance(cfg.Present2)
		}
	}

	keep1 := func() bool { return r.chance(cfg.KeepFact1) }
	keep2 := func() bool { return r.chance(cfg.KeepFact2) }

	// ---- Ontology 1 schema (deep-ish). ----
	s1.subclass("wordnet_actor", "wordnet_person")
	s1.subclass("wordnet_film_director", "wordnet_person")
	s1.subclass("wordnet_writer", "wordnet_person")
	s1.subclass("wordnet_movie", "wordnet_work")
	s1.subclass("wordnet_series", "wordnet_work")
	for ci := range cities {
		s1.subclass(fmt.Sprintf("wikicategory_People_from_%s", sanitize(cities[ci])), "wordnet_person")
	}
	// ---- Ontology 2 schema (15 flat classes). ----
	for _, c := range []string{"Actor", "Actress", "Director", "Producer", "Writer", "CrewMember"} {
		s2.subclass(c, "Personality")
	}
	for _, c := range []string{"Feature", "TVSeries", "TVMovie", "Documentary", "Short", "VideoGame"} {
		s2.subclass(c, "Production")
	}
	s2.subclass("Personality", "IMDbEntity")
	s2.subclass("Production", "IMDbEntity")

	p1 := func(i int) string { return fmt.Sprintf("person%05d", i) }
	p2 := func(i int) string { return fmt.Sprintf("nm%07d", i) }
	m1 := func(i int) string { return fmt.Sprintf("film%05d", i) }
	m2 := func(i int) string { return fmt.Sprintf("tt%07d", i) }

	// ---- Emit people. ----
	for i, p := range people {
		if in1p[i] {
			l := p1(i)
			switch p.role {
			case "actor":
				s1.typed(l, "wordnet_actor")
			case "director":
				s1.typed(l, "wordnet_film_director")
			case "writer":
				s1.typed(l, "wordnet_writer")
			default:
				s1.typed(l, "wordnet_person")
			}
			s1.typed(l, fmt.Sprintf("wikicategory_People_from_%s", sanitize(cities[p.birthCity])))
			s1.litIRIRel(l, labelRel1, p.name)
			if keep1() {
				s1.lit(l, "wasBornOnDate", p.birthDate)
			}
			if p.deathDate != "" && keep1() {
				s1.lit(l, "diedOnDate", p.deathDate)
			}
			if keep1() {
				s1.lit(l, "wasBornIn", cities[p.birthCity])
			}
			if p.role == "famous" && keep1() {
				s1.lit(l, "hasWonPrize", r.pick(prizes))
			}
		}
		if in2p[i] {
			l := p2(i)
			switch p.role {
			case "actor":
				if r.chance(0.5) {
					s2.typed(l, "Actor")
				} else {
					s2.typed(l, "Actress")
				}
			case "director":
				s2.typed(l, "Director")
			case "writer":
				s2.typed(l, "Writer")
			case "producer":
				s2.typed(l, "Producer")
			default:
				s2.typed(l, "Personality")
			}
			// IMDb renders a quarter of its person names in "Last,
			// First" credit order, which naive string identity cannot
			// bridge (the Sanshiro Sugata effect of Section 6.4).
			name2 := p.name
			if r.chance(0.25) {
				if i := strings.LastIndex(p.name, " "); i > 0 {
					name2 = p.name[i+1:] + ", " + p.name[:i]
				}
			}
			s2.litIRIRel(l, labelRel1, name2)
			if keep2() {
				bd := p.birthDate
				if r.chance(0.30) {
					bd = reformatDate(bd)
				}
				s2.lit(l, "bornOn", bd)
			}
			if p.deathDate != "" && keep2() {
				s2.lit(l, "diedOn", p.deathDate)
			}
			if keep2() {
				s2.lit(l, "bornIn", cities[p.birthCity])
			}
			if keep2() {
				s2.lit(l, "heightCm", fmt.Sprintf("%d", 150+r.Intn(50)))
			}
		}
		if in1p[i] && in2p[i] {
			gold.Add(s1.key(p1(i)), s2.key(p2(i)))
		}
	}

	// ---- Emit works. ----
	variant := 0
	for i, wk := range works {
		if in1w[i] {
			l := m1(i)
			if wk.kind == "series" {
				s1.typed(l, "wordnet_series")
			} else {
				s1.typed(l, "wordnet_movie")
			}
			s1.litIRIRel(l, labelRel1, wk.title)
			if keep1() {
				s1.lit(l, "wasCreatedOnDate", wk.year)
			}
			if in1p[wk.director] && keep1() {
				s1.fact(p1(wk.director), "directed", l)
			}
			if in1p[wk.writer] && keep1() {
				s1.fact(p1(wk.writer), "created", l)
			}
			for _, a := range wk.cast {
				if in1p[a] && keep1() {
					s1.fact(p1(a), "actedIn", l)
				}
			}
		}
		if in2w[i] {
			l := m2(i)
			title2 := wk.title
			if r.chance(cfg.TranslitRate) {
				title2 = swapWords(strings.TrimPrefix(wk.title, "The "))
			}
			emitWork2(s2, l, wk, title2, in2p, p2, keep2, r)
			// Closely related variant work: same cast and crew, related
			// title, different year — the "Out 1: Spectre" hazard.
			if r.chance(cfg.VariantRate) {
				vl := fmt.Sprintf("tt9%06d", variant)
				variant++
				vwk := wk
				vwk.year = wk.year
				emitWork2(s2, vl, vwk, wk.title+": Redux", in2p, p2, keep2, r)
			}
		}
		if in1w[i] && in2w[i] {
			gold.Add(s1.key(m1(i)), s2.key(m2(i)))
		}
	}

	// Documentaries: famous ontology-1 people appearing in ontology-2-only
	// productions (drives "People from X ⊆ actor" class confusions).
	doc := 0
	for i, p := range people {
		if p.role == "famous" && in2p[i] {
			l := fmt.Sprintf("tt8%06d", doc)
			doc++
			s2.typed(l, "Documentary")
			s2.litIRIRel(l, labelRel1, "The Life of "+p.name)
			s2.lit(l, "releasedIn", fmt.Sprintf("%d", 1990+r.Intn(30)))
			s2.fact(l, "features", p2(i))
		}
	}

	relGold := map[string]string{
		s1.ns + "actedIn":          s2.ns + "appearsIn",
		s1.ns + "directed":         s2.ns + "directorOf",
		s1.ns + "created":          s2.ns + "writerOf",
		s1.ns + "wasBornOnDate":    s2.ns + "bornOn",
		s1.ns + "diedOnDate":       s2.ns + "diedOn",
		s1.ns + "wasBornIn":        s2.ns + "bornIn",
		s1.ns + "wasCreatedOnDate": s2.ns + "releasedIn",
		labelRel1:                  labelRel1,
	}
	classGold := map[string]string{
		s1.ns + "wordnet_actor":         s2.ns + "Actor",
		s1.ns + "wordnet_film_director": s2.ns + "Director",
		s1.ns + "wordnet_writer":        s2.ns + "Writer",
		s1.ns + "wordnet_person":        s2.ns + "Personality",
		s1.ns + "wordnet_movie":         s2.ns + "Feature",
		s1.ns + "wordnet_series":        s2.ns + "TVSeries",
		s1.ns + "wordnet_work":          s2.ns + "Production",
	}
	return &Dataset{
		Name1:     "ykbfilm",
		Name2:     "ikb",
		Triples1:  s1.triples,
		Triples2:  s2.triples,
		Gold:      gold,
		RelGold:   relGold,
		ClassGold: classGold,
	}
}

// emitWork2 writes one ontology-2 production with full credits.
func emitWork2(s2 *tripleSink, l string, wk movieWork, title string,
	in2p []bool, p2 func(int) string, keep func() bool, r rng) {
	switch {
	case wk.kind == "series":
		s2.typed(l, "TVSeries")
	case r.chance(0.05):
		s2.typed(l, "TVMovie")
	default:
		s2.typed(l, "Feature")
	}
	s2.litIRIRel(l, labelRel1, title)
	if keep() {
		s2.lit(l, "releasedIn", wk.year)
	}
	if keep() {
		s2.lit(l, "hasGenre", wk.genre)
	}
	if in2p[wk.director] && keep() {
		s2.fact(p2(wk.director), "directorOf", l)
	}
	if in2p[wk.writer] && keep() {
		s2.fact(p2(wk.writer), "writerOf", l)
	}
	for _, a := range wk.cast {
		if in2p[a] && keep() {
			s2.fact(p2(a), "appearsIn", l)
		}
	}
}

// sanitize turns a display name into an IRI-safe local fragment.
func sanitize(s string) string {
	return strings.ReplaceAll(s, " ", "_")
}
