// Package engine bundles the statistics catalog, the simulated cluster,
// the optimizer and the learned-model feedback loop into a single-tenant
// System — the per-tenant unit of work the root cleo package re-exports
// and the serving layer (internal/serve) multiplexes.
package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cleo/internal/cascades"
	"cleo/internal/costmodel"
	"cleo/internal/exec"
	"cleo/internal/learned"
	"cleo/internal/ml"
	"cleo/internal/obs"
	"cleo/internal/plan"
	"cleo/internal/stats"
	"cleo/internal/telemetry"
	"cleo/internal/workload"
	"cleo/internal/workload/tpch"
)

// SystemConfig configures a System.
type SystemConfig struct {
	// Seed identifies the simulated cluster: its hidden hardware and data
	// complexity factors derive from it.
	Seed uint64
	// MaxPartitions caps per-stage parallelism (default 3000).
	MaxPartitions int
	// NoiseSigma is the cloud latency noise (default 0.18; 0 keeps the
	// default, use Exec to disable noise entirely).
	NoiseSigma float64
	// Parallelism bounds the worker goroutines one optimizer search fans
	// group-optimization tasks across (0 = GOMAXPROCS). Parallel searches
	// return plans cost-identical to sequential ones.
	Parallelism int
	// TemplateCacheSize bounds the recurring-job memo-template cache: the
	// optimizer snapshots each logical plan's explored memo and later
	// instances of the same template reuse it, re-running only costing and
	// arbitration. 0 selects the default capacity
	// (cascades.DefaultTemplateCacheSize); negative disables template
	// reuse entirely. Cached and fresh optimizations return bit-identical
	// plans; stale reuse is fenced by the catalog epoch, the model
	// identity and the search configuration in the cache key, plus a full
	// purge on every model hot-swap.
	TemplateCacheSize int
	// Rules selects the optimizer's transformation-rule set (nil = the
	// default set; cascades.EmptyRules() disables logical exploration, so
	// the search considers only the plan as written). The rule-set identity
	// is part of the template-cache key, so changing it can never reuse a
	// snapshot explored under different rules.
	Rules *cascades.RuleSet
	// MemoBudget caps the memo group count exploration may grow to
	// (0 = cascades.DefaultMemoBudget). Like Rules, it fences the
	// template cache.
	MemoBudget int
	// Exec, when non-nil, overrides the full cluster configuration.
	Exec *exec.Config
	// StreamingExec executes plans on the in-process streaming vectorized
	// executor instead of the simulated cluster. Per-operator latencies are
	// then measured wall-clock times, so the learned feedback loop trains
	// on real runtimes. NoiseSigma and Exec only apply to the simulator.
	StreamingExec bool
	// Stream tunes the streaming executor (nil = defaults); ignored unless
	// StreamingExec is set. When Metrics is configured, the executor's
	// per-operator instruments register there automatically.
	Stream *exec.StreamConfig
	// Metrics, when non-nil, threads observability through the system:
	// search phase timings, batched-costing latency, execution and retrain
	// durations all record into instruments registered here. Instruments
	// are keyed by name, so Systems sharing one registry (the multi-tenant
	// serving layer) aggregate into the same series. Nil costs nothing on
	// any hot path.
	Metrics *obs.Registry
}

// System bundles a statistics catalog, a simulated cluster, the optimizer
// and the learned-model feedback loop — everything a single tenant needs.
// All methods are safe for concurrent use: Retrain and SetModels publish
// the new predictor with an atomic hot-swap, so they may freely race with
// Run — in-flight optimizations keep pricing with the predictor they
// started with and later calls observe the new version.
type System struct {
	catalog    *stats.Catalog
	backend    exec.Backend
	maxP       int
	par        int
	rules      *cascades.RuleSet
	memoBudget int

	// templates caches explored memo snapshots across recurring instances
	// (nil when disabled). SetModels purges it on every hot-swap.
	templates *cascades.TemplateCache

	// Observability instruments, all nil without SystemConfig.Metrics.
	// Handles resolve once here; hot paths never touch the registry.
	searchMetrics  *cascades.SearchMetrics
	costerMetrics  *learned.CosterMetrics
	executeSeconds *obs.Histogram
	retrainSeconds *obs.Histogram

	mu  sync.Mutex // guards log
	log []telemetry.Record

	models atomic.Pointer[learned.Predictor]
}

// NewSystem builds a System.
func NewSystem(cfg SystemConfig) *System {
	ec := exec.DefaultConfig(cfg.Seed)
	if cfg.NoiseSigma > 0 {
		ec.NoiseSigma = cfg.NoiseSigma
	}
	if cfg.Exec != nil {
		ec = *cfg.Exec
	}
	if cfg.MaxPartitions > 0 {
		ec.MaxPartitions = cfg.MaxPartitions
	}
	s := &System{
		catalog:    stats.NewCatalog(cfg.Seed),
		maxP:       ec.MaxPartitions,
		par:        cfg.Parallelism,
		rules:      cfg.Rules,
		memoBudget: cfg.MemoBudget,
	}
	if cfg.StreamingExec {
		sc := exec.StreamConfig{}
		if cfg.Stream != nil {
			sc = *cfg.Stream
		}
		if sc.Metrics == nil {
			sc.Metrics = exec.NewMetrics(cfg.Metrics) // nil registry → nil metrics, free
		}
		if sc.MaxWorkers == 0 && cfg.Parallelism > 0 {
			// One parallelism knob governs both optimizer search fan-out
			// and execution pipeline width, unless Stream sets its own.
			sc.MaxWorkers = cfg.Parallelism
		}
		s.backend = exec.NewEngine(sc)
	} else {
		s.backend = exec.NewCluster(ec)
	}
	if cfg.TemplateCacheSize >= 0 {
		s.templates = cascades.NewTemplateCache(cfg.TemplateCacheSize)
	}
	if cfg.Metrics != nil {
		s.searchMetrics = cascades.NewSearchMetrics(cfg.Metrics)
		s.costerMetrics = learned.NewCosterMetrics(cfg.Metrics)
		s.executeSeconds = cfg.Metrics.Histogram("cleo_execute_seconds",
			"Query execution latency per run on the configured backend (simulated cluster or streaming engine).")
		s.retrainSeconds = cfg.Metrics.Histogram("cleo_retrain_seconds",
			"Model training duration per retrain (telemetry to published predictor).")
	}
	return s
}

// Parallelism reports the effective optimizer search parallelism (the
// configured knob, or GOMAXPROCS when unset). The serving layer surfaces
// it per tenant in /v1/stats.
func (s *System) Parallelism() int {
	if s.par > 0 {
		return s.par
	}
	return runtime.GOMAXPROCS(0)
}

// ExecWorkers reports the streaming backend's per-stage pipeline-width
// clamp, after any per-run override in opts. It is 0 when execution runs
// on the simulated cluster, which has no pipeline width to report.
func (s *System) ExecWorkers(opts RunOptions) int {
	eng, ok := s.backend.(*exec.Engine)
	if !ok {
		return 0
	}
	if opts.Parallelism > 0 {
		return eng.WithMaxWorkers(opts.Parallelism).MaxWorkers()
	}
	return eng.MaxWorkers()
}

// defaultParam applies the job-parameter default: the PM feature is 1 when
// the caller leaves it unset.
func defaultParam(p float64) float64 {
	if p == 0 {
		return 1
	}
	return p
}

// Catalog exposes the statistics catalog for table registration and
// selectivity overrides.
func (s *System) Catalog() *stats.Catalog { return s.catalog }

// RegisterTable installs a stored input's statistics.
func (s *System) RegisterTable(name string, ts stats.TableStats) { s.catalog.PutTable(name, ts) }

// RegisterTPCH installs the TPC-H tables (at the given scale factor) and
// the standard predicate selectivities into the system's catalog.
// lineitem, orders and part are registered as stored hash-partitioned
// inputs, as in the paper's SCOPE deployment.
func (s *System) RegisterTPCH(scaleFactor float64) {
	tpch.Register(s.catalog, scaleFactor)
}

// RunOptions controls one query execution.
type RunOptions struct {
	// Seed drives per-instance statistics drift and execution noise.
	Seed int64
	// Param is the job parameter (the PM feature); defaults to 1.
	Param float64
	// UseLearnedModels prices operators with the trained CLEO models
	// instead of the default cost model. Requires a prior Retrain or
	// LoadModels.
	UseLearnedModels bool
	// ResourceAware enables partition exploration during planning, using
	// the analytical strategy over the active cost model.
	ResourceAware bool
	// SafePlanSelection applies the paper's Section 6.7 regression
	// mitigation: the query is optimized twice — with the default cost
	// model and with the learned models — and the plan whose latency the
	// learned models predict to be lower is executed. Requires
	// UseLearnedModels.
	SafePlanSelection bool
	// SkipLogging suppresses telemetry entirely: nothing is appended to
	// the feedback log (or sent to LogSink), and the run is treated as an
	// evaluation run (no partition jitter).
	SkipLogging bool
	// Parallelism, when positive, overrides the system's configured
	// optimizer search parallelism for this one run — the serving layer's
	// per-request knob, letting a latency-critical query borrow more
	// search width than its tenant default (or a bulk query take less).
	// Parallel searches return plans cost-identical to sequential ones,
	// so the override never changes the chosen plan.
	Parallelism int
	// LogSink, when non-nil, receives the run's telemetry records instead
	// of the system's internal log — the serving layer batches them
	// through its ingestion channel. Unlike SkipLogging, the run still
	// counts as a telemetry-collection run (partition jitter applies).
	LogSink func([]telemetry.Record)
	// Models, when non-nil, prices with this predictor instead of the
	// system's current one. The serving layer reads one registry version
	// atomically and pins its predictor and cache here together, so a
	// concurrent hot-swap cannot mix a new predictor with an old cache.
	Models *learned.Predictor
	// Cache, when non-nil, memoizes learned-coster predictions across
	// optimizations keyed by operator signature and statistics (the
	// serving layer's recurring-job hot path). A cache is only coherent
	// with the one predictor that fills it, so it takes effect only when
	// Models pins that predictor — otherwise it is ignored, ensuring a
	// Retrain hot-swap can never serve another version's cached costs.
	Cache *learned.PredictionCache
	// Trace, when non-nil, records this run's phases (search phases,
	// execution) as an EXPLAIN ANALYZE-style span tree — the serving
	// layer's opt-in "trace": true. Tracing also turns on fine-grained
	// phase stamping that the always-on metrics tier skips.
	Trace *obs.Trace
	// TraceParent parents this run's spans (0 = trace root).
	TraceParent obs.SpanID
}

// RunResult is one executed query.
type RunResult struct {
	Plan                *plan.Physical
	PredictedCost       float64
	Latency             float64
	TotalProcessingTime float64
	Containers          int
	// OutputRows and OutputChecksum describe the query result when the
	// backend actually produces rows (the streaming executor); the
	// simulator leaves them zero.
	OutputRows     uint64
	OutputChecksum uint64
	Records        []telemetry.Record
}

// Optimize plans the query without executing it.
func (s *System) Optimize(q *plan.Logical, opts RunOptions) (*plan.Physical, float64, error) {
	coster, chooser, err := s.costing(opts)
	if err != nil {
		return nil, 0, err
	}
	par := s.par
	if opts.Parallelism > 0 {
		par = opts.Parallelism
	}
	opt := &cascades.Optimizer{
		Catalog:       s.catalog,
		Cost:          coster,
		MaxPartitions: s.maxP,
		ResourceAware: opts.ResourceAware,
		Chooser:       chooser,
		JobSeed:       opts.Seed,
		Parallelism:   par,
		Rules:         s.rules,
		MemoBudget:    s.memoBudget,
		Templates:     s.templates,
		Metrics:       s.searchMetrics,
		Trace:         opts.Trace,
		TraceParent:   opts.TraceParent,
	}
	res, err := opt.Optimize(q)
	if err != nil {
		return nil, 0, err
	}
	if !opts.UseLearnedModels && !opts.SkipLogging {
		// Telemetry-collection runs (logged, default-model-planned) jitter
		// the plan's partition counts, emulating production heuristic
		// variability so the learned models see a range of counts per
		// template. Evaluation runs (SkipLogging) and learned runs keep
		// clean optimized counts.
		cascades.JitterPlanPartitions(res.Plan, opts.Seed, s.maxP, coster)
	}
	return res.Plan, res.Plan.TotalCostEst(), nil
}

// costing assembles the coster and partition chooser for one optimization.
// The learned Coster implements the batch-costing upgrades (CostBatch,
// IndividualCostBatch), which the optimizer and choosers detect via type
// assertion — so wiring it here puts every Run/Optimize/tenant query on
// the batched matrix-inference path automatically, while the hand-crafted
// default model keeps the scalar path.
func (s *System) costing(opts RunOptions) (cascades.Coster, cascades.PartitionChooser, error) {
	var coster cascades.Coster = costmodel.Default{}
	if opts.UseLearnedModels {
		m := s.predictor(opts)
		if m == nil {
			return nil, nil, fmt.Errorf("cleo: no trained models; call Retrain or LoadModels first")
		}
		var cache *learned.PredictionCache
		if opts.Models != nil {
			cache = opts.Cache // coherent only with a pinned predictor
		}
		coster = &learned.Coster{
			Predictor: m,
			Param:     defaultParam(opts.Param),
			Fallback:  costmodel.Default{},
			Cache:     cache,
			Metrics:   s.costerMetrics,
		}
	}
	var chooser cascades.PartitionChooser
	if opts.ResourceAware {
		ac := &learned.AnalyticalChooser{Cost: coster, Param: defaultParam(opts.Param)}
		if lc, ok := coster.(*learned.Coster); ok {
			// The stage-fit memo shares the pinned version's prediction
			// cache, so a model hot-swap invalidates both together.
			ac.Fits = lc.Cache
		}
		chooser = ac
	}
	return coster, chooser, nil
}

// Run optimizes and executes the query, logging telemetry into the
// feedback loop (unless opts.SkipLogging).
func (s *System) Run(q *plan.Logical, opts RunOptions) (*RunResult, error) {
	var p *plan.Physical
	var cost float64
	var err error
	if opts.SafePlanSelection && opts.UseLearnedModels {
		p, cost, err = s.optimizeSafe(q, opts)
	} else {
		p, cost, err = s.Optimize(q, opts)
	}
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if s.executeSeconds != nil || opts.Trace != nil {
		t0 = time.Now()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var execRes exec.Result
	backend := s.backend
	if eng, ok := backend.(*exec.Engine); ok && opts.Parallelism > 0 {
		// The per-run parallelism override governs execution pipeline
		// width exactly as it governs optimizer search width above.
		backend = eng.WithMaxWorkers(opts.Parallelism)
	}
	tb, tracedRun := backend.(exec.TracedBackend)
	tracedRun = tracedRun && opts.Trace != nil
	if tracedRun {
		// Backends that can attribute time per operator hang their spans
		// under the execute span, so the trace shows the full operator tree.
		span := opts.Trace.Begin(opts.TraceParent, "execute")
		execRes, err = tb.RunTraced(p, rng, opts.Trace, span)
		if err == nil {
			opts.Trace.SetAttr(span, "latency", strconv.FormatFloat(execRes.Latency, 'g', 6, 64))
			opts.Trace.SetAttr(span, "containers", strconv.Itoa(execRes.Containers))
		}
		opts.Trace.End(span)
	} else {
		execRes, err = backend.Run(p, rng)
	}
	if err != nil {
		return nil, err
	}
	if !t0.IsZero() {
		el := time.Since(t0)
		s.executeSeconds.Record(el) // nil-safe
		if tr := opts.Trace; tr != nil && !tracedRun {
			tr.Add(opts.TraceParent, "execute", tr.Now()-int64(el), int64(el),
				"latency", strconv.FormatFloat(execRes.Latency, 'g', 6, 64),
				"containers", strconv.Itoa(execRes.Containers),
			)
		}
	}
	job := &workload.Job{
		ID:    fmt.Sprintf("run-%d", opts.Seed),
		Seed:  opts.Seed,
		Param: defaultParam(opts.Param),
	}
	records := telemetry.Extract(job, p)
	if !opts.SkipLogging {
		if opts.LogSink != nil {
			opts.LogSink(records)
		} else {
			s.mu.Lock()
			s.log = append(s.log, records...)
			s.mu.Unlock()
		}
	}
	return &RunResult{
		Plan:                p,
		PredictedCost:       cost,
		Latency:             execRes.Latency,
		TotalProcessingTime: execRes.TotalProcessingTime,
		Containers:          execRes.Containers,
		OutputRows:          execRes.OutputRows,
		OutputChecksum:      execRes.OutputChecksum,
		Records:             records,
	}, nil
}

// optimizeSafe implements the paper's optimize-twice mitigation
// (Section 6.7): plan with the default model and with the learned models,
// then keep the plan the learned models predict to be cheaper — they are
// the accurate judge even when the default model found the plan.
func (s *System) optimizeSafe(q *plan.Logical, opts RunOptions) (*plan.Physical, float64, error) {
	// Pin the predictor up front so the learned optimization and the
	// default-plan scoring below use the same model version even when a
	// Retrain hot-swap lands mid-flight.
	opts.Models = s.predictor(opts)
	defOpts := opts
	defOpts.UseLearnedModels = false
	defOpts.ResourceAware = false
	defPlan, _, err := s.Optimize(q, defOpts)
	if err != nil {
		return nil, 0, err
	}
	cleoPlan, cleoCost, err := s.Optimize(q, opts)
	if err != nil {
		return nil, 0, err
	}
	m := opts.Models
	param := defaultParam(opts.Param)
	// Score the default plan with the learned models, pricing every
	// operator in one batched pass.
	nodes := make([]*plan.Physical, 0, defPlan.Count())
	defPlan.Walk(func(n *plan.Physical) { nodes = append(nodes, n) })
	var defScore float64
	for _, c := range m.PredictNodes(nodes, param) {
		defScore += c
	}
	if defScore < cleoCost {
		return defPlan, defScore, nil
	}
	return cleoPlan, cleoCost, nil
}

// predictor resolves the predictor for one optimization: the pinned
// opts.Models when set, else the system's current hot-swapped models.
func (s *System) predictor(opts RunOptions) *learned.Predictor {
	if opts.Models != nil {
		return opts.Models
	}
	return s.models.Load()
}

// LogSize reports the telemetry log length.
func (s *System) LogSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}

// TelemetryLog returns a copy of the accumulated telemetry.
func (s *System) TelemetryLog() []telemetry.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]telemetry.Record(nil), s.log...)
}

// AppendTelemetry merges externally collected records (e.g. from a
// workload trace run) into the feedback log.
func (s *System) AppendTelemetry(recs []telemetry.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, recs...)
}

// Retrain fits the four individual model families and the combined
// meta-ensemble from the accumulated telemetry (the paper's periodic
// training, Section 5.1) and atomically hot-swaps the result in, so it is
// safe to call while Run traffic is in flight.
func (s *System) Retrain() error {
	recs := s.TelemetryLog()
	var t0 time.Time
	if s.retrainSeconds != nil {
		t0 = time.Now()
	}
	pr, err := learned.TrainSplit(recs, learned.DefaultTrainConfig())
	if err != nil {
		return err
	}
	if !t0.IsZero() {
		s.retrainSeconds.Record(time.Since(t0))
	}
	s.SetModels(pr)
	return nil
}

// Models returns the trained predictor (nil before training).
func (s *System) Models() *learned.Predictor {
	return s.models.Load()
}

// SetModels installs an externally trained predictor with an atomic swap.
// The hot-swap also purges the memo-template cache: the cache key already
// fences on the predictor identity, so the purge reclaims entries priced
// under superseded versions rather than leaving them to age out of the LRU.
func (s *System) SetModels(pr *learned.Predictor) {
	s.models.Store(pr)
	if s.templates != nil {
		s.templates.Invalidate()
	}
}

// TemplateStats snapshots the recurring-job template cache counters (the
// zero value when template reuse is disabled).
func (s *System) TemplateStats() cascades.TemplateCacheStats {
	if s.templates == nil {
		return cascades.TemplateCacheStats{}
	}
	return s.templates.Stats()
}

// SaveModels serializes the trained models to a file.
func (s *System) SaveModels(path string) error {
	m := s.Models()
	if m == nil {
		return fmt.Errorf("cleo: no trained models to save")
	}
	return m.SaveFile(path)
}

// LoadModels reads models from a file written by SaveModels.
func (s *System) LoadModels(path string) error {
	pr, err := learned.LoadFile(path)
	if err != nil {
		return err
	}
	s.SetModels(pr)
	return nil
}

// EvaluateModels scores the trained models against records (e.g. a held-out
// day of telemetry).
func (s *System) EvaluateModels(recs []telemetry.Record) (ml.Accuracy, error) {
	m := s.Models()
	if m == nil {
		return ml.Accuracy{}, fmt.Errorf("cleo: no trained models")
	}
	return m.Evaluate(recs), nil
}

// ExplainDiff optimizes q under the default cost model and under the
// learned models and reports both plans — the paper's plan-change analysis
// (Section 6.6).
func (s *System) ExplainDiff(q *plan.Logical, opts RunOptions) (defPlan, cleoPlan *plan.Physical, changed bool, err error) {
	defOpts := opts
	defOpts.UseLearnedModels = false
	defOpts.ResourceAware = false
	defPlan, _, err = s.Optimize(q, defOpts)
	if err != nil {
		return nil, nil, false, err
	}
	cleoOpts := opts
	cleoOpts.UseLearnedModels = true
	cleoPlan, _, err = s.Optimize(q, cleoOpts)
	if err != nil {
		return nil, nil, false, err
	}
	return defPlan, cleoPlan, defPlan.String() != cleoPlan.String(), nil
}
