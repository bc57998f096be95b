package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cleo/internal/obs"
	"cleo/internal/plan"
	"cleo/internal/serve"
)

// layerDef declares one per-layer metric of the traced run.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// familyNames name the learned model families in metric names, indexed
// like learned.Family.
var familyNames = []string{"subgraph", "approx", "input", "operator"}

// cascadesPhases are the optimizer phases of the "optimize" span, plus
// its "other" residual.
var cascadesPhases = []string{"copy_in", "explore", "costing", "enforce", "arbitrate", "other"}

// layerMetrics lists every per-layer metric the traced run reports, on
// every workload (0 where a layer does not take part). README.md records
// which end-to-end metric each should move.
func layerMetrics() []layerDef {
	lower := func(name, unit string) layerDef { return layerDef{name, unit, "lower"} }
	higher := func(name, unit string) layerDef { return layerDef{name, unit, "higher"} }
	defs := []layerDef{
		lower("serve.request_us", "us"),
		lower("serve.self_us", "us"),
		lower("serve.ingested_records_per_op", "count"),
		lower("plan.decode_us", "us"),
		lower("persist.journal_append_us", "us"),
		lower("engine.optimize_ms", "ms"),
		lower("engine.execute_ms", "ms"),
	}
	for _, p := range cascadesPhases {
		defs = append(defs, lower("cascades."+p+"_us", "us"))
	}
	defs = append(defs,
		lower("cascades.template_lookups_per_op", "count"),
		higher("cascades.template_hit_ratio", "ratio"),
		lower("cascades.rule_fires_per_op", "count"),
		lower("learned.lookups_per_op", "count"),
		higher("learned.prediction_hit_ratio", "ratio"),
		higher("learned.fit_hit_ratio", "ratio"),
		lower("learned.batch_rows_per_op", "count"),
	)
	for _, f := range familyNames {
		defs = append(defs, lower("learned.train_ms."+f, "ms"))
	}
	defs = append(defs, lower("learned.train_ms.total", "ms"))
	for _, f := range append(append([]string(nil), familyNames...), "combined") {
		defs = append(defs, lower("learned.median_error_pct."+f, "%"))
	}
	for _, f := range familyNames {
		defs = append(defs, higher("learned.coverage_pct."+f, "%"))
	}
	defs = append(defs, higher("learned.correlation.combined", "r"), lower("learned.zero_predictions", "count"))
	for _, op := range plan.AllPhysicalOps() {
		defs = append(defs, lower("exec.op_ms_per_query."+op.String(), "ms"))
	}
	for _, op := range plan.AllPhysicalOps() {
		defs = append(defs, lower("exec.rows_per_query."+op.String(), "rows"))
	}
	defs = append(defs,
		lower("exec.batches_per_query", "count"),
		lower("exec.executed_rows_per_query", "rows"),
		lower("exec.sim_latency_s_per_query", "sim_s"),
		lower("exec.sim_processing_s_per_query", "sim_container_s"),
		lower("go.gc_cycles_per_op", "count"),
		lower("go.gc_pause_us_per_op", "us"),
		lower("go.max_rss_mb", "MiB"),
		lower("bench.latency_p99_ms", "ms"),
		lower("bench.trace_overhead_pct", "%"),
	)
	return defs
}

// span is one recorded interval. Spans of one operation share Op; a root
// span has Parent 0.
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent"`
	Op      int               `json:"op"`
	Name    string            `json:"name"`
	StartNs int64             `json:"start_ns"`
	DurNs   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// tracer keeps the traced run's spans in memory until they are written.
type tracer struct {
	spans []span
}

func (t *tracer) add(op, parent int, name string, start, dur int64, attrs map[string]string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op,
		Name: name, StartNs: start, DurNs: dur, Attrs: attrs})
	return len(t.spans)
}

// engineSpanName maps a span of the service's per-request trace tree to
// the benchmark's layer naming: top-level spans are engine calls, the
// optimizer's phase children are cascades phases, exec:<op> children are
// executor operators.
func engineSpanName(s *obs.SpanJSON, depth int) string {
	switch {
	case depth == 0:
		return "engine." + s.Name
	case strings.HasPrefix(s.Name, "exec:"):
		return "exec." + strings.TrimPrefix(s.Name, "exec:")
	default:
		return "cascades." + s.Name
	}
}

// addTree records a response's span tree under parent, offset to the
// request's start.
func (t *tracer) addTree(op, parent int, base int64, spans []*obs.SpanJSON, depth int) {
	for _, s := range spans {
		id := t.add(op, parent, engineSpanName(s, depth), base+s.StartNs, s.DurationNs, s.Attrs)
		t.addTree(op, id, base, s.Children, depth+1)
	}
}

// layerValues computes every per-layer metric from the untraced phase a
// and the traced phase b, and writes the span JSON.
func layerValues(s *server, w bench, a, b *phase, cfg config) (map[string]float64, error) {
	m := map[string]float64{}
	tr := &tracer{}

	// Request, engine and optimizer-phase times from the traced phase.
	nb := float64(len(b.reqs))
	var reqNs, engineNs, decodeNs float64
	for i := range b.reqs {
		root := tr.add(i, 0, "serve.request", int64(b.start[i]), int64(b.lat[i]), nil)
		reqNs += float64(b.lat[i])
		if b.status[i] != http.StatusOK {
			continue
		}
		var resp struct {
			Trace *obs.TraceJSON `json:"trace"`
		}
		if err := json.Unmarshal(b.bodies[i], &resp); err != nil {
			return nil, fmt.Errorf("decode traced response: %w", err)
		}
		if resp.Trace == nil {
			continue
		}
		tr.addTree(i, root, int64(b.start[i]), resp.Trace.Spans, 0)
		for _, sp := range resp.Trace.Spans {
			engineNs += float64(sp.DurationNs)
			key := "engine." + sp.Name + "_ms"
			m[key] += float64(sp.DurationNs) / 1e6 / nb
			if sp.Name != "optimize" {
				continue
			}
			for _, ph := range sp.Children {
				m["cascades."+ph.Name+"_us"] += float64(ph.DurationNs) / 1e3 / nb
			}
		}
	}
	m["serve.request_us"] = reqNs / 1e3 / nb
	m["serve.self_us"] = (reqNs - engineNs) / 1e3 / nb

	// The plan codec, called directly on each traced request's plan.
	decoded := 0
	for i, r := range b.reqs {
		if r.plan == nil {
			continue
		}
		var l plan.Logical
		t0 := time.Now()
		err := json.Unmarshal(r.plan, &l)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("plan decode: %w", err)
		}
		// Decode spans follow the phase on the same clock, back to back.
		tr.add(i, 0, "plan.decode", int64(b.wall)+int64(decodeNs), int64(d), nil)
		decodeNs += float64(d)
		decoded++
	}
	if decoded > 0 {
		m["plan.decode_us"] = decodeNs / 1e3 / float64(decoded)
	}

	// Counters over the untraced phase.
	na := float64(len(a.reqs))
	prom := func(name string) float64 { return a.after.prom.sum(name) - a.before.prom.sum(name) }
	tenant := func(f func(serve.TenantStats) float64) float64 {
		return a.after.tenantSum(f) - a.before.tenantSum(f)
	}
	hits := tenant(func(t serve.TenantStats) float64 { return float64(t.TemplateHits) })
	lookups := hits + tenant(func(t serve.TenantStats) float64 { return float64(t.TemplateMisses) })
	m["cascades.template_lookups_per_op"] = lookups / na
	m["cascades.template_hit_ratio"] = ratio(hits, lookups)
	m["cascades.rule_fires_per_op"] = prom("cleo_optimizer_rule_fires_total") / na
	predHits := tenant(func(t serve.TenantStats) float64 { return float64(t.Cache.Hits) })
	predLookups := tenant(func(t serve.TenantStats) float64 { return float64(t.Cache.Lookups) })
	fitHits := tenant(func(t serve.TenantStats) float64 { return float64(t.Cache.FitHits) })
	fitAll := fitHits + tenant(func(t serve.TenantStats) float64 { return float64(t.Cache.FitMisses) })
	m["learned.lookups_per_op"] = predLookups / na
	m["learned.prediction_hit_ratio"] = ratio(predHits, predLookups)
	m["learned.fit_hit_ratio"] = ratio(fitHits, fitAll)
	m["learned.batch_rows_per_op"] = prom("cleo_costing_batch_rows_total") / na
	var rows float64
	for _, op := range plan.AllPhysicalOps() {
		lbl := `{op="` + op.String() + `"}`
		m["exec.op_ms_per_query."+op.String()] = prom("cleo_exec_operator_seconds_sum"+lbl) * 1e3 / na
		r := prom("cleo_exec_rows_total"+lbl) / na
		m["exec.rows_per_query."+op.String()] = r
		rows += r
	}
	m["exec.executed_rows_per_query"] = rows
	m["exec.batches_per_query"] = prom("cleo_exec_batches_total") / na
	m["go.gc_cycles_per_op"] = a.gcs / na
	m["go.gc_pause_us_per_op"] = a.pause * 1e6 / na
	m["go.max_rss_mb"] = a.rss
	m["bench.latency_p99_ms"] = ms(quantile(a.lat, 0.99))
	rateA := na / a.wall.Seconds()
	rateB := nb / b.wall.Seconds()
	m["bench.trace_overhead_pct"] = (rateA/rateB - 1) * 100

	if err := w.layers(s, a, b, m, tr); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name(), cfg.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: %d spans written to %s\n", len(tr.spans), path)
	return m, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
