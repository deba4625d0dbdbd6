package main

import (
	"fmt"
	"math"
	"regexp"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the figures the two kinds of user wait on, measured with
// tracing off; every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pipeline_s", "s"},
	{"upload_s", "s"},
	{"align_s", "s"},
	{"publish_s", "s"},
	{"peak_heap_mb", "MB"},
	{"instance_precision", "fraction"},
	{"instance_recall", "fraction"},
	{"relation_precision", "fraction"},
	{"class_precision", "fraction"},
	{"get_p50_ms", "ms"},
	{"get_p99_ms", "ms"},
	{"get_rps", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"success_rate", "fraction"},
}

// perLayer are the traced run's figures, one set per layer boundary; every
// workload reports all of them. README.md maps each to the end-to-end
// metric it should move.
var perLayer = []metricDef{
	{"ingest.validate_s", "s"},
	{"ingest.alloc_mb", "MB"},
	{"ingest.triples_per_s", "triples/s"},
	{"ingest.blocks", "count"},
	{"ingest.spills", "count"},
	{"server.upload_spool_s", "s"},
	{"server.upload_spool_alloc_mb", "MB"},
	{"server.ingest_wait_s", "s"},
	{"server.queue_s", "s"},
	{"store.load_s", "s"},
	{"store.load_alloc_mb", "MB"},
	{"store.build_s", "s"},
	{"store.build_alloc_mb", "MB"},
	{"store.alloc_mb", "MB"},
	{"store.facts", "count"},
	{"core.new_s", "s"},
	{"core.instance_s", "s"},
	{"core.instance_s_per_iter", "s"},
	{"core.relation_s", "s"},
	{"core.step_alloc_mb", "MB"},
	{"core.class_s", "s"},
	{"core.class_alloc_mb", "MB"},
	{"core.iterations", "count"},
	{"core.assigned", "count"},
	{"core.snapshot_s", "s"},
	{"core.snapshot_alloc_mb", "MB"},
	{"core.encode_s", "s"},
	{"core.encode_alloc_mb", "MB"},
	{"core.snapshot_bytes", "bytes"},
	{"core.split_s", "s"},
	{"core.split_alloc_mb", "MB"},
	{"diskstore.save_s", "s"},
	{"diskstore.save_alloc_mb", "MB"},
	{"align.unattributed_s", "s"},
	{"client.get_snapshot_s", "s"},
	{"client.get_snapshot_alloc_mb", "MB"},
	{"server.put_snapshot_s", "s"},
	{"shard.publish_s", "s"},
	{"shard.publish_self_s", "s"},
	{"shard.publish_alloc_mb", "MB"},
	{"shard.refresh_s", "s"},
	{"shard.refresh_alloc_mb", "MB"},
	{"server.handler_get_us", "us"},
	{"server.handler_get_bytes", "bytes"},
	{"server.handler_batch_us", "us"},
	{"server.handler_batch_bytes", "bytes"},
	{"server.http_get_us", "us"},
	{"shard.direct_get_us", "us"},
	{"shard.router_get_us", "us"},
	{"shard.router_hop_us", "us"},
	{"shard.router_batch_us", "us"},
	{"shard.hedges", "count"},
	{"shard.hedge_wins", "count"},
	{"shard.failovers", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect checks values against defs — every metric present, finite, with
// a valid name, and nothing else — and attaches the units.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			return nil, fmt.Errorf("invalid metric %q (unit %q)", d.name, d.unit)
		}
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not defined", name)
			}
		}
	}
	return out, nil
}
