package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"cleo/internal/exec"
	"cleo/internal/serve"
	"cleo/internal/telemetry"
	"cleo/internal/workload/tpch"
)

// Each output check must accept a correct output and reject the same
// output deliberately corrupted.

func TestCheckAnswerRejectsCorruptedAnswers(t *testing.T) {
	s := newServer(serve.Config{StreamingExec: true, Parallelism: 1, ExecWorkers: teWidth})
	defer s.close()
	s.svc.Tenant(teTenant).System().RegisterTPCH(teSF)
	w := &tpchExecute{}
	ref, err := referenceAnswer(1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.OutputRows == 0 {
		t.Fatal("Q1 reference answer has no rows")
	}
	w.ref[0] = ref
	r, err := queryRequest(serve.QueryRequest{Tenant: teTenant, Mode: "run", Plan: tpch.Queries()[1]()})
	if err != nil {
		t.Fatal(err)
	}
	code, body := s.do(http.MethodPost, r.path, r.body)
	// The second operation is a synthetic answer to Q2 that equals a
	// synthetic empty reference: it counts as failed, not incorrect.
	w.ref[1] = exec.Result{OutputRows: 0, OutputChecksum: 0x5eed}
	empty, err := json.Marshal(map[string]uint64{"output_rows": 0, "output_checksum": 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	ph := &phase{reqs: []request{r, r}, status: []int{code, http.StatusOK},
		bodies: [][]byte{body, empty}, failed: make([]bool, 2)}
	if err := w.check(s, ph); err != nil {
		t.Fatalf("correct answers rejected: %v", err)
	}
	if ph.failed[0] || !ph.failed[1] {
		t.Fatalf("failed = %v, want only the empty answer counted as failed", ph.failed)
	}

	var qr queryResult
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(&qr, w.ref[0]); err != nil {
		t.Fatalf("Q1 answer rejected: %v", err)
	}
	for name, corrupt := range map[string]func(q *queryResult){
		"rows":     func(q *queryResult) { q.OutputRows++ },
		"checksum": func(q *queryResult) { q.OutputChecksum ^= 1 },
		"empty":    func(q *queryResult) { q.OutputRows, q.OutputChecksum = 0, 0 },
	} {
		bad := qr
		corrupt(&bad)
		if err := checkAnswer(&bad, w.ref[0]); err == nil || errors.Is(err, errEmptyAnswer) {
			t.Errorf("corrupted %s: got %v, want a mismatch", name, err)
		}
	}
	// A non-empty answer where the reference is empty is wrong, not failed.
	rows := queryResult{OutputRows: 3, OutputChecksum: w.ref[1].OutputChecksum}
	if err := checkAnswer(&rows, w.ref[1]); err == nil || errors.Is(err, errEmptyAnswer) {
		t.Errorf("rows where the reference has none: got %v", err)
	}
}

func TestCheckTraceResponseRejectsCorruptedResponses(t *testing.T) {
	good := queryResult{UsedLearned: true, ModelVersion: 3, Latency: 12, TotalProcessingTime: 40, Containers: 9}
	good.Summary.NumStages, good.Summary.NumOps = 3, 7
	if err := checkTraceResponse(&good, 3); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	for name, corrupt := range map[string]func(q *queryResult){
		"default model":      func(q *queryResult) { q.UsedLearned = false },
		"stale version":      func(q *queryResult) { q.ModelVersion = 2 },
		"zero latency":       func(q *queryResult) { q.Latency = 0 },
		"NaN latency":        func(q *queryResult) { q.Latency = math.NaN() },
		"latency over total": func(q *queryResult) { q.Latency = q.TotalProcessingTime * 1.01 },
		"too few containers": func(q *queryResult) { q.Containers = q.Summary.NumStages - 1 },
		"no stages":          func(q *queryResult) { q.Summary.NumStages = 0 },
	} {
		bad := good
		corrupt(&bad)
		if err := checkTraceResponse(&bad, 3); err == nil {
			t.Errorf("corrupted %s: accepted", name)
		}
	}
}

func TestDrainLogsRejectsMiscountedTelemetry(t *testing.T) {
	s := newServer(serve.Config{})
	defer s.close()
	recs := make([]telemetry.Record, 50)
	s.svc.Tenant("a").System().AppendTelemetry(recs)
	if err := drainLogs(s, len(recs), time.Second); err != nil {
		t.Fatalf("exact count rejected: %v", err)
	}
	if err := drainLogs(s, len(recs)-1, time.Second); err == nil {
		t.Error("a log holding more records than the responses account for was accepted")
	}
	if err := drainLogs(s, len(recs)+1, 20*time.Millisecond); err == nil {
		t.Error("a log missing a record was accepted")
	}
}

func TestCheckPredictionsRejectsCorruptedPredictions(t *testing.T) {
	good := []float64{0.5, 3, 1e-4, 0}
	if err := checkPredictions(good); err != nil {
		t.Fatalf("finite non-negative predictions rejected: %v", err)
	}
	for _, v := range []float64{-1, math.NaN(), math.Inf(1)} {
		bad := append([]float64(nil), good...)
		bad[1] = v
		if err := checkPredictions(bad); err == nil {
			t.Errorf("prediction %v accepted", v)
		}
	}
}

func TestScore(t *testing.T) {
	acc := score([]float64{1, 2, 3, 8}, []float64{1, 2, 4, 4})
	// Relative errors 0, 0, 0.25, 1: median 12.5 %.
	if math.Abs(acc.medianErrPct-12.5) > 1e-9 {
		t.Errorf("median error %v%%, want 12.5%%", acc.medianErrPct)
	}
	if math.Abs(acc.pearson-0.75048) > 1e-4 {
		t.Errorf("correlation %v", acc.pearson)
	}
	if r := score([]float64{1, 2, 3}, []float64{3, 2, 1}).pearson; math.Abs(r+1) > 1e-9 {
		t.Errorf("anti-correlated: r = %v, want -1", r)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics the
// benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []layerDef                            `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: %s %s, the benchmark prints %s %s",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	want := layerMetrics()
	if len(b.PerLayer) != len(want) {
		t.Fatalf("%d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(want))
	}
	for i := range want {
		if b.PerLayer[i] != want[i] {
			t.Errorf("per-layer metric %d: %+v, the benchmark prints %+v", i, b.PerLayer[i], want[i])
		}
	}
}
