package main

// Correctness checks run by the same command that prints the metrics: a
// digest of every snapshot the run computes, served answers compared byte
// for byte with the aligner's, and alignment quality against the
// generator's gold standard.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/store"
)

// digest hashes a snapshot's alignment content — instance assignments,
// relation and class scores — with iterations, class time, publication
// time and lineage left out, so two computations of the same alignment
// hash the same however long they took.
func digest(s *core.ResultSnapshot) (string, error) {
	content := core.ResultSnapshot{
		Instances:   s.Instances,
		Relations12: s.Relations12, Relations21: s.Relations21,
		Classes12: s.Classes12, Classes21: s.Classes21,
	}
	data, err := content.MarshalBinary()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// fetch performs one request and returns its status and body.
func fetch(ctx context.Context, hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// matchesAligner replays a served exchange against the aligner and reports
// whether the answers are byte-identical.
func matchesAligner(ctx context.Context, hc *http.Client, alignerURL string, ex exchange) error {
	status, want, err := fetch(ctx, hc, ex.method, alignerURL+ex.path, ex.body)
	if err != nil {
		return err
	}
	if status != ex.status || !bytes.Equal(ex.resp, want) {
		return fmt.Errorf("%s %s: served HTTP %d %q, aligner HTTP %d %q", ex.method, ex.path, ex.status, clip(ex.resp), status, clip(want))
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 160 {
		return string(b[:160]) + "…"
	}
	return string(b)
}

// fixedSample is the number of gold keys read through the router right
// after a pipeline, while the router's epoch is the aligner's snapshot.
const fixedSample = 128

// checkFixedSample reads a fixed, seed-chosen sample of gold keys through
// the router and the aligner; the answers must be byte-identical. It
// returns one result per key, nil where the answers matched.
func checkFixedSample(ctx context.Context, hc *http.Client, f *fleet, keys []lookup, seed int64) []error {
	errs := make([]error, fixedSample)
	for i := range errs {
		lk := keys[pick(seed, int64(i), 99, len(keys))]
		rs, rb, err := fetch(ctx, hc, http.MethodGet, f.routeURL+lk.path, nil)
		if err == nil {
			var as int
			var ab []byte
			as, ab, err = fetch(ctx, hc, http.MethodGet, f.alignerURL+lk.path, nil)
			if err == nil && (rs != as || !bytes.Equal(rb, ab)) {
				err = fmt.Errorf("GET %s: router HTTP %d %q, aligner HTTP %d %q", lk.path, rs, clip(rb), as, clip(ab))
			}
		}
		errs[i] = err
	}
	return errs
}

// quality scores a served snapshot against the generator's gold standard
// with internal/bench's evaluators: instance precision and recall, relation
// precision (ontology 1 ⊆ ontology 2) and class precision at threshold 0.4.
// o1 and o2 must hold the corpus the snapshot was computed from.
func quality(d *gen.Dataset, o1, o2 *store.Ontology, s *core.ResultSnapshot) (inst, rec, rel, cls float64, err error) {
	assign := make(map[string]string, len(s.Instances))
	for _, a := range s.Instances {
		assign[a.Key1] = a.Key2
	}
	m := d.Gold.Evaluate(assign)
	relByName := func(o *store.Ontology) map[string]store.Relation {
		out := make(map[string]store.Relation, o.NumRelations())
		for _, r := range o.Relations() {
			out[o.RelationName(r)] = r
		}
		return out
	}
	r1, r2 := relByName(o1), relByName(o2)
	rels := make([]core.RelAlignment, 0, len(s.Relations12))
	for _, ra := range s.Relations12 {
		sub, ok1 := r1[ra.Sub]
		super, ok2 := r2[ra.Super]
		if !ok1 || !ok2 {
			return 0, 0, 0, 0, fmt.Errorf("snapshot relation %s ⊆ %s is not in the corpus", ra.Sub, ra.Super)
		}
		rels = append(rels, core.RelAlignment{Sub: sub, Super: super, P: ra.P})
	}
	classes := make([]core.ClassAlignment, 0, len(s.Classes12))
	for _, ca := range s.Classes12 {
		sub, ok1 := o1.LookupResource(ca.Sub)
		super, ok2 := o2.LookupResource(ca.Super)
		if !ok1 || !ok2 {
			return 0, 0, 0, 0, fmt.Errorf("snapshot class %s ⊆ %s is not in the corpus", ca.Sub, ca.Super)
		}
		classes = append(classes, core.ClassAlignment{Sub: sub, Super: super, P: ca.P})
	}
	re := bench.EvalRelations(o1, o2, rels, d.RelGold)
	ce := bench.EvalClasses(o1, o2, classes, d.ClassGold, 0.4)
	return m.Precision, m.Recall, re.Precision(), ce.Precision(), nil
}
