package serve

import (
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"cleo/internal/cascades"
	"cleo/internal/engine"
	"cleo/internal/learned"
	"cleo/internal/persist"
	"cleo/internal/plan"
	"cleo/internal/stats"
	"cleo/internal/telemetry"
)

// ErrRetrainInProgress is returned when a retrain is requested while one
// is already running for the tenant.
var ErrRetrainInProgress = errors.New("serve: retrain already in progress")

// ErrPersistenceDisabled is returned by Snapshot when the service has no
// state directory.
var ErrPersistenceDisabled = errors.New("serve: persistence not configured (no state directory)")

// ErrNoModelVersion is returned by Snapshot before the first publish.
var ErrNoModelVersion = errors.New("serve: no model version to snapshot")

// Tenant is one named optimizer session: a System, its model registry,
// and the telemetry ingestion pipeline. All methods are safe for
// concurrent use; Run/Optimize traffic keeps flowing while Retrain (or
// the background retraining loop) hot-swaps model versions underneath.
type Tenant struct {
	// Name is the tenant's session key.
	Name string

	sys *engine.System
	reg *Registry

	// state is the tenant's durable state (nil when the service runs
	// without a state directory): the flusher journals every batch there
	// before the in-memory append, and each publish snapshots the new
	// version asynchronously. log carries persistence warnings and
	// recovery notices, with the tenant name pre-bound as an attribute.
	state *persist.TenantState
	log   *slog.Logger

	// obs is the service's observability state (nil without metrics);
	// the tenant records its retrain durations there.
	obs *serviceObs

	// coalesce, when non-nil, collapses identical in-flight optimize
	// requests into one search (Config.Coalesce).
	coalesce *coalescer

	// notify, when non-nil, fires after every local publish (not after
	// replica installs) — the cluster layer's replication trigger.
	notify func(*Tenant, *ModelVersion)

	// Telemetry batches flow from Run through ingest to one flusher
	// goroutine, which appends them to the system log in merged batches
	// and checks the retraining threshold — Runs never block on the log
	// mutex behind a training pass. flushReq carries flush barriers:
	// the flusher drains everything queued ahead of the barrier, then
	// closes the ack channel.
	ingest   chan []telemetry.Record
	flushReq chan chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup

	// Table-statistics changes wait in tablesPending for the tenant's one
	// table writer. RegisterTables starts it (counted in wg) when none is
	// running; each pass appends everything registered since the last as
	// one durable frame, and it exits once nothing is pending — group
	// commit, so concurrent registrations share frames and fsyncs.
	// tablesMu also orders each catalog update with its pending merge.
	tablesMu      sync.Mutex
	tablesPending map[string]stats.TableStats
	tablesWriting bool

	retrainThreshold int
	lastTrain        atomic.Int64 // log size at the last publish
	training         atomic.Bool  // single-flight retrain guard

	queries         atomic.Uint64
	runs            atomic.Uint64
	optimizes       atomic.Uint64
	errors          atomic.Uint64
	retrains        atomic.Uint64
	replicaInstalls atomic.Uint64
}

func newTenant(name string, sys *engine.System, retrainThreshold, ingestBuffer int,
	state *persist.TenantState, logger *slog.Logger, so *serviceObs,
	coalesce bool, notify func(*Tenant, *ModelVersion)) *Tenant {
	if ingestBuffer <= 0 {
		ingestBuffer = 128
	}
	if logger == nil {
		logger = slog.Default()
	}
	t := &Tenant{
		Name:             name,
		sys:              sys,
		reg:              &Registry{},
		state:            state,
		log:              logger.With("tenant", name),
		obs:              so,
		notify:           notify,
		ingest:           make(chan []telemetry.Record, ingestBuffer),
		flushReq:         make(chan chan struct{}),
		done:             make(chan struct{}),
		retrainThreshold: retrainThreshold,
	}
	if coalesce {
		t.coalesce = newCoalescer()
	}
	t.recover()
	t.wg.Add(1)
	go t.flusher()
	return t
}

// recover restores the tenant's durable state before it serves anything:
// the latest loadable snapshot becomes the current model version (same
// id, metadata history resumed), and the journal's not-yet-trained
// records are replayed into the telemetry log so the next retrain — and
// the background threshold — see them. Corruption was already degraded to
// warnings by the persist layer; a tenant with nothing readable simply
// cold starts.
func (t *Tenant) recover() {
	if t.state == nil {
		return
	}
	// Table statistics first: replayed telemetry may trigger a retrain,
	// and post-restart queries should plan against the full catalog
	// without the client re-sending stats.
	if tabs, err := t.state.LoadTables(); err != nil {
		t.log.Warn("serve: skipping persisted table statistics", "err", err)
	} else if len(tabs) > 0 {
		for name, ts := range tabs {
			t.sys.RegisterTable(name, ts)
		}
		t.log.Info("serve: restored table statistics", "tables", len(tabs))
	}
	mans := t.state.Manifests()
	for i := len(mans) - 1; i >= 0; i-- {
		man := mans[i]
		pr, err := t.state.LoadModel(man.ID)
		if err != nil {
			// Fall back to the next older snapshot; newer-but-unloadable
			// manifests stay out of the restored history too.
			t.log.Warn("serve: skipping snapshot", "version", man.ID, "err", err)
			continue
		}
		history := make([]ModelVersionInfo, 0, i+1)
		for _, m := range mans[:i+1] {
			history = append(history, versionInfoOf(m))
		}
		t.reg.Restore(history, versionInfoOf(man), pr)
		t.sys.SetModels(pr)
		t.state.NoteRecoveredVersion(man.ID)
		t.log.Info("serve: restored model version",
			"version", man.ID, "models", man.NumModels, "train_records", man.TrainRecords)
		break
	}
	if recs := t.state.Replay(); len(recs) > 0 {
		t.sys.AppendTelemetry(recs)
		t.log.Info("serve: replayed journaled telemetry", "records", len(recs))
		t.maybeRetrain()
	}
}

// versionInfoOf converts a durable snapshot manifest back to registry
// metadata.
func versionInfoOf(m persist.Manifest) ModelVersionInfo {
	return ModelVersionInfo{
		ID:           m.ID,
		TrainedAt:    m.TrainedAt,
		TrainRecords: m.TrainRecords,
		NumModels:    m.NumModels,
		Accuracy:     m.Accuracy,
	}
}

// manifestOf is the inverse of versionInfoOf.
func manifestOf(info ModelVersionInfo) persist.Manifest {
	return persist.Manifest{
		ID:           info.ID,
		TrainedAt:    info.TrainedAt,
		TrainRecords: info.TrainRecords,
		NumModels:    info.NumModels,
		Accuracy:     info.Accuracy,
	}
}

// System exposes the underlying engine (catalog access, model save/load).
func (t *Tenant) System() *engine.System { return t.sys }

// Registry exposes the tenant's model-version registry.
func (t *Tenant) Registry() *Registry { return t.reg }

// HasModels reports whether a learned model version is live.
func (t *Tenant) HasModels() bool {
	return t.reg.Current() != nil || t.sys.Models() != nil
}

// RegisterTables registers stored-input statistics with the tenant's
// catalog and, when persistence is on, hands the tables whose statistics
// changed (idempotent re-sends change nothing) to the table writer, which
// makes them durable asynchronously — so the first post-restart or
// post-failover request no longer depends on the client re-sending stats.
func (t *Tenant) RegisterTables(tables map[string]stats.TableStats) {
	if len(tables) == 0 {
		return
	}
	cat := t.sys.Catalog()
	t.tablesMu.Lock()
	defer t.tablesMu.Unlock()
	for name, ts := range tables {
		if !cat.PutTable(name, ts) || t.state == nil {
			continue
		}
		if t.tablesPending == nil {
			t.tablesPending = make(map[string]stats.TableStats, len(tables))
		}
		t.tablesPending[name] = ts
	}
	if len(t.tablesPending) > 0 && !t.tablesWriting {
		t.tablesWriting = true
		t.wg.Add(1)
		go t.tableWriter()
	}
}

// tableWriter appends the pending table deltas, one frame per pass, until
// none is left.
func (t *Tenant) tableWriter() {
	defer t.wg.Done()
	for {
		t.tablesMu.Lock()
		delta := t.tablesPending
		t.tablesPending = nil
		if len(delta) == 0 {
			t.tablesWriting = false
			t.tablesMu.Unlock()
			return
		}
		t.tablesMu.Unlock()
		if err := t.state.AppendTables(delta); err != nil {
			t.log.Warn("serve: persisting table statistics failed", "err", err)
		}
	}
}

// InstallReplica installs a model version replicated from the tenant's
// owner node: tables registered (and persisted), the version live in the
// registry under its origin id, and the snapshot artifacts written to this
// node's own state directory — so a failover serves the latest learned
// model warm, and a follower restart recovers it from local disk. model
// holds the owner's serialized snapshot bytes, written verbatim. Stale
// versions (at or below the live one) are dropped and reported false.
func (t *Tenant) InstallReplica(info ModelVersionInfo, pr *learned.Predictor,
	model []byte, tables map[string]stats.TableStats) bool {
	t.RegisterTables(tables)
	v, ok := t.reg.InstallReplica(info, pr)
	if !ok {
		return false
	}
	t.sys.SetModels(pr)
	t.replicaInstalls.Add(1)
	if t.state != nil && len(model) > 0 {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			err := t.state.ImportSnapshot(manifestOf(v.Info), model)
			if err != nil && !errors.Is(err, persist.ErrStale) {
				t.log.Warn("serve: persisting replicated snapshot failed",
					"version", v.Info.ID, "err", err)
			}
		}()
	}
	return true
}

// prepare pins the current model version's predictor and prediction cache
// into opts so one optimization never mixes versions, and returns the
// version id it pinned (0 when none).
func (t *Tenant) prepare(opts *engine.RunOptions) int64 {
	if !opts.UseLearnedModels {
		return 0
	}
	v := t.reg.Current()
	if v == nil {
		return 0 // fall through to the system's own models (LoadModels path)
	}
	opts.Models = v.Predictor
	opts.Cache = v.Cache
	return v.Info.ID
}

// Run optimizes and executes q, routing telemetry through the ingestion
// pipeline (unless opts.SkipLogging).
func (t *Tenant) Run(q *plan.Logical, opts engine.RunOptions) (*engine.RunResult, error) {
	res, _, err := t.RunWithVersion(q, opts)
	return res, err
}

// RunWithVersion is Run, additionally reporting the model version id the
// request was priced with (0 when the default cost model was used).
func (t *Tenant) RunWithVersion(q *plan.Logical, opts engine.RunOptions) (*engine.RunResult, int64, error) {
	t.queries.Add(1)
	t.runs.Add(1)
	version := t.prepare(&opts)
	// The flusher owns log appends; a caller-supplied sink still sees
	// every batch.
	if callerSink := opts.LogSink; callerSink != nil {
		opts.LogSink = func(recs []telemetry.Record) {
			t.offer(recs)
			callerSink(recs)
		}
	} else {
		opts.LogSink = t.offer
	}
	res, err := t.sys.Run(q, opts)
	if err != nil {
		t.errors.Add(1)
		return nil, version, err
	}
	return res, version, nil
}

// Optimize plans q without executing it.
func (t *Tenant) Optimize(q *plan.Logical, opts engine.RunOptions) (*plan.Physical, float64, error) {
	p, cost, _, err := t.OptimizeWithVersion(q, opts)
	return p, cost, err
}

// OptimizeWithVersion is Optimize, additionally reporting the model
// version id the plan was priced with (0 when the default cost model was
// used).
func (t *Tenant) OptimizeWithVersion(q *plan.Logical, opts engine.RunOptions) (*plan.Physical, float64, int64, error) {
	p, cost, version, _, err := t.OptimizeCoalesced(q, opts)
	return p, cost, version, err
}

// OptimizeCoalesced is OptimizeWithVersion under the request-coalescing
// group: identical concurrent requests (same logical signature, params,
// model version and stats epoch) share one search, and the bool reports
// whether this call piggybacked on another request's computation. The
// shared *plan.Physical is read-only by the serving contract. Traced
// requests bypass the group — a trace is per-request output — as does a
// tenant without coalescing enabled.
func (t *Tenant) OptimizeCoalesced(q *plan.Logical, opts engine.RunOptions) (*plan.Physical, float64, int64, bool, error) {
	t.queries.Add(1)
	t.optimizes.Add(1)
	version := t.prepare(&opts)
	opts.SkipLogging = true // planning-only calls leave no telemetry
	if t.coalesce == nil || opts.Trace != nil {
		p, cost, err := t.sys.Optimize(q, opts)
		if err != nil {
			t.errors.Add(1)
		}
		return p, cost, version, false, err
	}
	key := coalesceKeyFor(q, opts, version, t.sys.Catalog().Epoch())
	p, cost, version, shared, err := t.coalesce.do(key, func() (*plan.Physical, float64, int64, error) {
		p, cost, err := t.sys.Optimize(q, opts)
		return p, cost, version, err
	})
	if shared {
		t.obs.noteCoalesced()
	}
	if err != nil {
		t.errors.Add(1) // each request that consumed the error counts it
	}
	return p, cost, version, shared, err
}

// offer hands a telemetry batch to the flusher, blocking only if the
// ingest buffer is full (backpressure rather than record loss).
func (t *Tenant) offer(recs []telemetry.Record) {
	select {
	case t.ingest <- recs:
	case <-t.done:
	}
}

// flusher drains the ingest channel, merging queued batches into one
// append, then checks the background-retraining threshold.
func (t *Tenant) flusher() {
	defer t.wg.Done()
	for {
		select {
		case recs := <-t.ingest:
			// Copy before merging: the first batch's slice is shared with
			// the caller's RunResult.Records, and appending other runs'
			// records into its spare capacity would mutate a buffer the
			// API caller also owns.
			batch := append([]telemetry.Record(nil), recs...)
		merge:
			for {
				select {
				case more := <-t.ingest:
					batch = append(batch, more...)
				default:
					break merge
				}
			}
			t.journalThenAppend(batch)
			t.maybeRetrain()
		case ack := <-t.flushReq:
			t.drain()
			close(ack)
		case <-t.done:
			t.drain()
			return
		}
	}
}

// drain appends everything currently queued on ingest to the system log.
func (t *Tenant) drain() {
	for {
		select {
		case recs := <-t.ingest:
			t.journalThenAppend(recs)
		default:
			return
		}
	}
}

// journalThenAppend durably journals one merged batch, then makes it
// visible to the in-memory log (and so to training). The journal write
// happens on the flusher goroutine — never on a request's path — and a
// failed write degrades to a warning: the records still serve the
// in-process feedback loop, they just will not survive a crash.
func (t *Tenant) journalThenAppend(recs []telemetry.Record) {
	if t.state != nil {
		if err := t.state.AppendJournal(recs); err != nil {
			t.log.Warn("serve: telemetry journal append failed", "err", err)
		}
	}
	t.sys.AppendTelemetry(recs)
}

// flush blocks until every telemetry batch enqueued before the call has
// reached the system log.
func (t *Tenant) flush() {
	ack := make(chan struct{})
	select {
	case t.flushReq <- ack:
		<-ack
	case <-t.done:
	}
}

// maybeRetrain launches a single-flight background retrain once the log
// has grown past the threshold since the last publish.
func (t *Tenant) maybeRetrain() {
	if t.retrainThreshold <= 0 {
		return
	}
	if int64(t.sys.LogSize())-t.lastTrain.Load() < int64(t.retrainThreshold) {
		return
	}
	if !t.training.CompareAndSwap(false, true) {
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer t.training.Store(false)
		if _, err := t.retrain(); err != nil {
			t.errors.Add(1)
		}
	}()
}

// Retrain trains a new model version from the accumulated telemetry and
// hot-swaps it in. It returns ErrRetrainInProgress when a (background or
// explicit) retrain is already running.
func (t *Tenant) Retrain() (ModelVersionInfo, error) {
	if !t.training.CompareAndSwap(false, true) {
		return ModelVersionInfo{}, ErrRetrainInProgress
	}
	defer t.training.Store(false)
	info, err := t.retrain()
	if err != nil {
		t.errors.Add(1)
	}
	return info, err
}

// accuracySnapshotCap bounds the per-publish accuracy evaluation.
const accuracySnapshotCap = 2000

func (t *Tenant) retrain() (ModelVersionInfo, error) {
	// Barrier: completed queries ack to the client after enqueueing their
	// records, so an explicit retrain right behind them must train on
	// everything already offered, not on whatever the flusher got to.
	t.flush()
	recs := t.sys.TelemetryLog()
	var t0 time.Time
	if t.obs != nil {
		t0 = time.Now()
	}
	pr, err := learned.TrainSplit(recs, learned.DefaultTrainConfig())
	if err != nil {
		return ModelVersionInfo{}, err
	}
	if !t0.IsZero() {
		t.obs.retrainSeconds.Record(time.Since(t0))
	}
	eval := recs
	if len(eval) > accuracySnapshotCap {
		eval = eval[len(eval)-accuracySnapshotCap:]
	}
	acc := pr.Evaluate(eval)
	t.sys.SetModels(pr) // keep direct System access (Save/Evaluate) current
	v := t.reg.Publish(pr, len(recs), acc)
	t.lastTrain.Store(int64(len(recs)))
	t.retrains.Add(1)
	t.snapshotAsync(v)
	if t.notify != nil {
		t.notify(t, v) // replication trigger; must not block serving
	}
	return v.Info, nil
}

// snapshotAsync persists the freshly published version off the serving
// and retraining paths. The write is tracked by the tenant's WaitGroup so
// close() never abandons an in-flight snapshot, and persist serializes
// concurrent writes while dropping stale (superseded) ones.
func (t *Tenant) snapshotAsync(v *ModelVersion) {
	if t.state == nil {
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		_ = t.writeSnapshot(v)
	}()
}

// writeSnapshot persists one version and, once the snapshot is safely on
// disk, cuts the version's trained records from the telemetry journal —
// in that order, so a crash between the two can only over-retain journal
// records, never lose ones no snapshot has learned from.
func (t *Tenant) writeSnapshot(v *ModelVersion) error {
	err := t.state.SaveSnapshot(manifestOf(v.Info), v.Predictor)
	if errors.Is(err, persist.ErrStale) {
		return nil // a newer version's snapshot already covers this one
	}
	if err != nil {
		t.log.Warn("serve: snapshot failed", "version", v.Info.ID, "err", err)
		return err
	}
	if err := t.state.MarkTrained(v.trainedLocal); err != nil {
		t.log.Warn("serve: journal truncation after snapshot failed", "version", v.Info.ID, "err", err)
	}
	return nil
}

// Snapshot synchronously persists the current model version (the
// POST /v1/tenants/{name}/snapshot admin operation). Returns
// ErrPersistenceDisabled without a state directory and ErrNoModelVersion
// before the first publish; an already-persisted version is a no-op
// success.
func (t *Tenant) Snapshot() (ModelVersionInfo, error) {
	if t.state == nil {
		return ModelVersionInfo{}, ErrPersistenceDisabled
	}
	v := t.reg.Current()
	if v == nil {
		return ModelVersionInfo{}, ErrNoModelVersion
	}
	if err := t.writeSnapshot(v); err != nil {
		return ModelVersionInfo{}, err
	}
	return v.Info, nil
}

// TenantStats snapshots one tenant's serving counters.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Queries   uint64 `json:"queries"`
	Runs      uint64 `json:"runs"`
	Optimizes uint64 `json:"optimizes"`
	Errors    uint64 `json:"errors"`
	Retrains  uint64 `json:"retrains"`
	// Coalesced counts optimize requests that piggybacked on an identical
	// in-flight search; CoalesceLeaders counts the searches actually run
	// on behalf of the group (both 0 with coalescing disabled).
	Coalesced       uint64 `json:"coalesced,omitempty"`
	CoalesceLeaders uint64 `json:"coalesce_leaders,omitempty"`
	// ReplicaInstalls counts model versions installed warm from another
	// cluster node's replication push.
	ReplicaInstalls uint64 `json:"replica_installs,omitempty"`
	LogSize         int    `json:"log_size"`
	// Parallelism is the tenant's effective optimizer search parallelism
	// (worker-pool width of the concurrent Cascades search).
	Parallelism int `json:"parallelism"`
	// ExecWorkers is the tenant's default execution pipeline width on the
	// streaming backend (0 on the simulator, which has no pipeline width).
	ExecWorkers  int                `json:"exec_workers,omitempty"`
	ModelVersion int64              `json:"model_version"` // 0 = none live
	NumModels    int                `json:"num_models"`
	Cache        learned.CacheStats `json:"cache"`
	// TemplateCacheStats embeds the recurring-job memo-template counters
	// flat (template_hits, template_misses, …).
	cascades.TemplateCacheStats
	// Persist carries the durable-state counters (nil when the service
	// runs without a state directory).
	Persist *persist.Stats `json:"persist,omitempty"`
}

// Stats snapshots the tenant's counters and the live version's cache.
func (t *Tenant) Stats() TenantStats {
	s := TenantStats{
		Tenant:             t.Name,
		Queries:            t.queries.Load(),
		Runs:               t.runs.Load(),
		Optimizes:          t.optimizes.Load(),
		Errors:             t.errors.Load(),
		Retrains:           t.retrains.Load(),
		ReplicaInstalls:    t.replicaInstalls.Load(),
		LogSize:            t.sys.LogSize(),
		Parallelism:        t.sys.Parallelism(),
		ExecWorkers:        t.sys.ExecWorkers(engine.RunOptions{}),
		TemplateCacheStats: t.sys.TemplateStats(),
	}
	if t.coalesce != nil {
		s.Coalesced = t.coalesce.coalesced.Load()
		s.CoalesceLeaders = t.coalesce.leaders.Load()
	}
	if v := t.reg.Current(); v != nil {
		s.ModelVersion = v.Info.ID
		s.NumModels = v.Info.NumModels
		s.Cache = v.Cache.Stats()
	}
	if t.state != nil {
		ps := t.state.Stats()
		s.Persist = &ps
	}
	return s
}

// close stops the flusher after draining queued telemetry, waits for any
// in-flight background retrain or snapshot write, then releases the
// durable state.
func (t *Tenant) close() {
	close(t.done)
	t.wg.Wait()
	if t.state != nil {
		if err := t.state.Close(); err != nil {
			t.log.Warn("serve: closing durable state", "err", err)
		}
	}
}
