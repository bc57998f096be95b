package cascades

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cleo/internal/costmodel"
	"cleo/internal/obs"
	"cleo/internal/plan"
	"cleo/internal/stats"
)

// Coster predicts the exclusive latency of one physical operator. Both the
// hand-crafted models (costmodel.Default, costmodel.Tuned) and CLEO's
// learned combined model implement it; swapping the implementation is the
// paper's "minimally invasive" retrofit (step 10 in Figure 8a).
//
// Costers must be safe for concurrent use: a parallel search prices
// candidates from many worker goroutines at once.
type Coster interface {
	Name() string
	OperatorCost(n *plan.Physical) float64
}

// BatchCoster is an optional Coster upgrade: implementations price a whole
// slice of operators in one call, writing len(ops) costs into out. The
// optimizer's partition exploration materializes every candidate
// partition-count variant of a stage and prices them in one CostBatch call
// instead of counts × operators scalar calls, and each implementation rule
// prices its full candidate set the same way; costers detect-upgrade via
// type assertion, so scalar-only models (costmodel.Default, costmodel.Tuned)
// keep working unchanged. Batched costs must equal scalar OperatorCost
// results row for row.
type BatchCoster interface {
	Coster
	CostBatch(ops []*plan.Physical, out []float64)
}

// costBatch prices ops into out, taking the batch path when the coster has
// one and falling back to operator-at-a-time calls otherwise.
func costBatch(c Coster, ops []*plan.Physical, out []float64) {
	if bc, ok := c.(BatchCoster); ok {
		bc.CostBatch(ops, out)
		return
	}
	for i, op := range ops {
		out[i] = c.OperatorCost(op)
	}
}

// PartitionChooser performs the paper's partition optimization (step 9 in
// Figure 8a): given the operators of one completed stage (ops[0] is the
// partitioning operator), pick the stage-wide partition count that
// minimizes total stage cost. It returns the chosen count and the number
// of cost-model look-ups spent (Figure 8c's metric). Implementations must
// be safe for concurrent use.
type PartitionChooser interface {
	ChooseStagePartitions(ops []*plan.Physical, maxPartitions int) (partitions, lookups int)
}

// Optimizer is the Cascades-style planner. It is pure configuration: all
// per-run state lives in a search created by Optimize, so one Optimizer
// value may be shared and its Optimize/OptimizeAll methods called from many
// goroutines concurrently. Optimize never writes the receiver — defaults
// (MaxPartitions, Parallelism) are resolved into locals per run.
type Optimizer struct {
	// Catalog supplies statistics; required.
	Catalog *stats.Catalog
	// Cost is the cost model invoked in Optimize Inputs; required.
	Cost Coster
	// MaxPartitions caps per-stage parallelism (default 3000).
	MaxPartitions int
	// ResourceAware enables partition exploration/optimization with
	// Chooser. When false, partition counts come from the default local
	// heuristic (costmodel.DerivePartitions), as in stock SCOPE.
	ResourceAware bool
	// Chooser performs partition optimization; required if ResourceAware.
	Chooser PartitionChooser
	// JobSeed drives per-instance statistics drift during annotation.
	JobSeed int64
	// Rules is the transformation-rule set exploration applies before the
	// costed search (nil = DefaultRules()). EmptyRules() disables
	// exploration, pinning the search to the submitted plan shape.
	Rules *RuleSet
	// MemoBudget caps exploration growth in memo groups
	// (0 = DefaultMemoBudget).
	MemoBudget int
	// Parallelism bounds the worker goroutines one search (or one
	// OptimizeAll batch) fans group-optimization tasks across; 0 means
	// GOMAXPROCS. At 1 the search runs fully inline — no goroutines, no
	// channels — and parallel runs produce plans cost-identical to that
	// sequential search (deterministic tie-breaking).
	Parallelism int
	// Templates, when non-nil, reuses memo snapshots across recurring
	// instances of the same logical plan: a hit skips copy-in and logical
	// exploration and re-runs only the costed half of the search, so the
	// chosen plan is bit-identical to an uncached optimization. A miss
	// publishes the finished search's memo for later instances.
	Templates *TemplateCache
	// Metrics, when non-nil, records per-search latency and phase timings
	// into shared instruments (see NewSearchMetrics). Nil disables every
	// observability hook down to a single pointer check per site.
	Metrics *SearchMetrics
	// Trace, when non-nil, makes this run emit an EXPLAIN ANALYZE-style
	// span tree (and turns on fine-grained phase stamping). Per-run state:
	// set it on a per-request Optimizer value, not a shared one.
	Trace *obs.Trace
	// TraceParent is the parent span for this run's spans (0 = root).
	TraceParent obs.SpanID
}

// Result reports one optimization run.
type Result struct {
	// Plan is the chosen physical plan, annotated with estimated stats,
	// partition counts and per-operator estimated costs.
	Plan *plan.Physical
	// Cost is the plan's total predicted cost.
	Cost float64
	// MemoGroups is the memo size, for diagnostics.
	MemoGroups int
	// ModelLookups counts cost-model invocations during partition
	// exploration (0 when not resource-aware).
	ModelLookups int
	// TemplateHit reports whether this run reused a cached memo template
	// (always false without Optimizer.Templates).
	TemplateHit bool
	// RuleFires counts the memo expressions each transformation rule
	// inserted during this run's exploration. It is nil on template hits:
	// the reused snapshot was explored by the run that published it.
	RuleFires map[string]uint64
}

// parallelism resolves the effective worker-pool width.
func (o *Optimizer) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// newSem builds the shared worker-pool semaphore for one search (or one
// OptimizeAll batch). The caller's goroutine is the first worker, so the
// semaphore holds Parallelism-1 extra slots; nil means "run everything
// inline".
func (o *Optimizer) newSem() chan struct{} {
	par := o.parallelism()
	if par <= 1 {
		return nil
	}
	return make(chan struct{}, par-1)
}

// validate checks required configuration once per run.
func (o *Optimizer) validate() error {
	if o.Catalog == nil || o.Cost == nil {
		return fmt.Errorf("cascades: Catalog and Cost are required")
	}
	if o.ResourceAware && o.Chooser == nil {
		return fmt.Errorf("cascades: ResourceAware requires a Chooser")
	}
	return nil
}

// Optimize plans the logical query and returns the best physical plan.
func (o *Optimizer) Optimize(root *plan.Logical) (*Result, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o.optimizeOne(o.newSem(), root)
}

// ruleSet resolves the effective transformation-rule set.
func (o *Optimizer) ruleSet() *RuleSet {
	if o.Rules != nil {
		return o.Rules
	}
	return DefaultRules()
}

// memoBudget resolves the effective exploration budget.
func (o *Optimizer) memoBudget() int {
	if o.MemoBudget > 0 {
		return o.MemoBudget
	}
	return DefaultMemoBudget
}

// templateKey derives the template-cache slot for one optimization of root.
func (o *Optimizer) templateKey(root *plan.Logical) TemplateKey {
	return TemplateKey{
		Sig:           plan.LogicalSignature(root),
		CatalogEpoch:  o.Catalog.Epoch(),
		MaxPartitions: o.maxPartitions(),
		Parallelism:   o.parallelism(),
		ResourceAware: o.ResourceAware,
		Model:         costerIdentity(o.Cost),
		Rules:         fmt.Sprintf("%s@%d", o.ruleSet().Identity(), o.memoBudget()),
	}
}

// optimizeOne runs one query's search, reusing a memo template when the
// cache holds one for this (plan, configuration, model, stats-epoch) key
// and publishing the finished memo otherwise. The snapshot only ever
// short-circuits copy-in and logical exploration — both pure functions of
// the logical plan — so cached and fresh searches visit identical
// expression sets in identical order and return bit-identical plans.
func (o *Optimizer) optimizeOne(sem chan struct{}, root *plan.Logical) (*Result, error) {
	s := o.newSearch(sem)
	var key TemplateKey
	if o.Templates != nil {
		key = o.templateKey(root)
		if tmpl, ok := o.Templates.Get(key, root); ok {
			s.memo = tmpl.memo
			s.templateHit = true
		}
	}
	res, err := s.run(root)
	if err != nil {
		return nil, err
	}
	if o.Templates != nil && !s.templateHit {
		// ExploreAll ran the rules to fixpoint before the search, so the
		// memo is immutable from here on. The root is cloned so a caller
		// mutating its query afterwards cannot skew verification.
		o.Templates.Put(key, &Template{memo: s.memo, root: root.Clone()})
	}
	return res, nil
}

// OptimizeAll plans several independent queries through one shared worker
// pool: each query gets its own memoized search, but their group tasks
// compete for the same Parallelism slots, so a serving instance can push a
// batch of queries through the optimizer at full machine width. results[i]
// corresponds to queries[i] and each is identical to a standalone
// Optimize(queries[i]) call; on error the first failure (in query order) is
// returned.
func (o *Optimizer) OptimizeAll(queries []*plan.Logical) ([]*Result, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	sem := o.newSem()
	results := make([]*Result, len(queries))
	fns := make([]func() error, len(queries))
	for i, q := range queries {
		fns[i] = func() error {
			res, err := o.optimizeOne(sem, q)
			if err != nil {
				return err
			}
			results[i] = res
			return nil
		}
	}
	if err := fanOut(sem, fns...); err != nil {
		return nil, err
	}
	return results, nil
}

// search is the per-run state of one query optimization: resolved
// configuration, the memo, the concurrency-safe task table, and the shared
// worker-pool semaphore. Keeping it off the Optimizer makes a shared
// Optimizer config race-free to reuse.
type search struct {
	catalog       *stats.Catalog
	cost          Coster
	chooser       PartitionChooser
	resourceAware bool
	maxPartitions int
	jobSeed       int64
	rules         *RuleSet
	memoBudget    int

	// memo is built and explored by run, unless a template hit pre-seeded
	// a shared, fully explored snapshot (templateHit). A shared memo is
	// read-only: ExploreAll on it is a no-op and Exprs reads need no
	// ordering.
	memo        *Memo
	templateHit bool
	ruleFires   map[string]uint64

	// table memoizes (group, required-props) tasks as futures: the first
	// goroutine to claim a key computes it, duplicates wait on the
	// in-flight future instead of re-searching.
	mu    sync.Mutex
	table map[taskKey]*future

	// sem is the shared bounded worker pool (nil = fully inline).
	sem chan struct{}

	// obs is the run's observability state; nil when the run is neither
	// metered nor traced, so hooks cost one pointer check.
	obs *searchObs

	lookups atomic.Int64
}

// maxPartitions resolves the effective per-stage parallelism cap.
func (o *Optimizer) maxPartitions() int {
	if o.MaxPartitions > 0 {
		return o.MaxPartitions
	}
	return 3000
}

func (o *Optimizer) newSearch(sem chan struct{}) *search {
	s := &search{
		catalog:       o.Catalog,
		cost:          o.Cost,
		chooser:       o.Chooser,
		resourceAware: o.ResourceAware,
		maxPartitions: o.maxPartitions(),
		jobSeed:       o.JobSeed,
		rules:         o.ruleSet(),
		memoBudget:    o.memoBudget(),
		table:         map[taskKey]*future{},
		sem:           sem,
	}
	if o.Metrics != nil || o.Trace != nil {
		s.obs = &searchObs{metrics: o.Metrics, trace: o.Trace, parent: o.TraceParent}
	}
	return s
}

func (s *search) run(root *plan.Logical) (*Result, error) {
	if so := s.obs; so != nil {
		so.start = time.Now()
		so.startNs = so.trace.Now()
	}
	if s.memo == nil {
		if so := s.obs; so != nil {
			t0 := time.Now()
			s.memo = NewMemo(root)
			so.add(phaseCopyIn, time.Since(t0))
			t0 = time.Now()
			s.ruleFires = s.memo.ExploreAll(s.rules, s.memoBudget)
			so.add(phaseExplore, time.Since(t0))
		} else {
			s.memo = NewMemo(root)
			s.ruleFires = s.memo.ExploreAll(s.rules, s.memoBudget)
		}
		if so := s.obs; so != nil && so.metrics != nil {
			for name, n := range s.ruleFires {
				if ctr := so.metrics.RuleFires[name]; ctr != nil {
					ctr.Add(n)
				}
			}
		}
	}
	res, err := s.optimizeGroup(s.memo.Root(), Props{})
	if err != nil {
		return nil, err
	}
	// The only deep copy of the search: the winner shares finished stages
	// with the memoized results, and the caller (jitter, telemetry, the
	// executor) may rewrite any of its operators.
	best := res.root.Clone()
	// The topmost stage never saw a boundary above it; finalize it.
	s.optimizeTopStage(best)
	cost := best.TotalCostEst()
	result := &Result{
		Plan:         best,
		Cost:         cost,
		MemoGroups:   s.memo.NumGroups(),
		ModelLookups: int(s.lookups.Load()),
		TemplateHit:  s.templateHit,
		RuleFires:    s.ruleFires,
	}
	if s.obs != nil {
		s.obs.finish(result)
	}
	return result, nil
}

type taskKey struct {
	group GroupID
	props string
}

// searchResult is the memoized best plan for (group, required props). Once
// published through a future it is immutable. A consumer copies only the
// root's top stage (plan.Physical.CloneTopStage), the one part the search
// can still mutate: alignment, arbitration and enforcement change the
// partition counts and costs of the top stage, of the stages coupled to it
// by co-partitioned joins and of the Exchanges at its bottom, never what
// lies below an Exchange. Results therefore share finished stages, which
// stay read-only.
type searchResult struct {
	root      *plan.Physical
	cost      float64
	delivered Props
}

// future is one in-flight or completed (group, props) task. res/err are
// written exactly once, before done closes.
type future struct {
	done chan struct{}
	res  *searchResult
	err  error
}

// fanOut runs fns, spawning each onto the bounded worker pool when a slot
// is free and running it inline on the caller's goroutine otherwise (the
// last one always runs inline — the caller is a worker too). The
// non-blocking acquire means a saturated pool degrades to sequential
// execution instead of deadlocking, even though tasks recursively fan out.
// It returns the first error in argument order.
//
// A panic in a spawned worker is captured and re-raised on the caller's
// goroutine after every worker finishes — exactly where inline execution
// would have panicked — so a panicking cost model unwinds the request that
// triggered it (where net/http's per-connection recover can contain it)
// instead of crashing the whole process from a bare goroutine.
func fanOut(sem chan struct{}, fns ...func() error) error {
	if len(fns) == 0 {
		return nil
	}
	if sem == nil {
		for _, fn := range fns {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(fns))
	panics := make([]any, len(fns))
	var wg sync.WaitGroup
	// Fail fast like the sequential path: once any task fails — inline or
	// spawned — the batch's outcome is decided, so tasks not yet started
	// stay unstarted (in-flight workers still run to completion).
	var failed atomic.Bool
	func() {
		// Wait for spawned workers even when an inline call panics, so no
		// worker outlives this frame or its result slices.
		defer wg.Wait()
		for i, fn := range fns[:len(fns)-1] {
			if failed.Load() {
				return
			}
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					defer func() {
						if panics[i] = recover(); panics[i] != nil {
							failed.Store(true)
						}
					}()
					if errs[i] = fn(); errs[i] != nil {
						failed.Store(true)
					}
				}()
			default:
				if errs[i] = fn(); errs[i] != nil {
					failed.Store(true)
				}
			}
		}
		if !failed.Load() {
			errs[len(fns)-1] = fns[len(fns)-1]()
		}
	}()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// childTask names one child optimization an implementation rule needs:
// optimize (id, req) into *dst.
type childTask struct {
	dst **searchResult
	id  GroupID
	req Props
}

// optimizeChildren runs a rule's independent child optimizations. With a
// worker pool they fan out through fanOut; inline mode (sem == nil — the
// sequential default) runs them directly with no closures or goroutine
// scaffolding, keeping the hot path allocation-lean.
func (s *search) optimizeChildren(tasks []childTask) error {
	if s.sem == nil {
		for i := range tasks {
			var err error
			if *tasks[i].dst, err = s.optimizeGroup(tasks[i].id, tasks[i].req); err != nil {
				return err
			}
		}
		return nil
	}
	fns := make([]func() error, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		fns[i] = func() error {
			var err error
			*t.dst, err = s.optimizeGroup(t.id, t.req)
			return err
		}
	}
	return fanOut(s.sem, fns...)
}

// optimizeGroup implements the Optimize Group / Optimize Expression tasks:
// it returns the cheapest physical plan for the group meeting the required
// properties, memoized per (group, props). Concurrent requests for the same
// key dedupe by waiting on the in-flight future; group dependencies follow
// the memo DAG, so future waits cannot cycle.
//
// A waiter keeps its pool slot while it waits. That is what makes the
// search deadlock-free: the only blocking operations are future waits and
// fanOut's wait for its spawned children, and both point strictly down the
// memo DAG (a task waits only on work its own group needs), while pool
// acquisition never blocks. An earlier design lent the slot back while
// parked and re-acquired it with a blocking send; that re-acquire could
// wait on slot-holders that were themselves waiting, through fanOut, on
// the re-acquirer's own subtree, and so hung the search.
func (s *search) optimizeGroup(id GroupID, req Props) (*searchResult, error) {
	key := taskKey{group: id, props: req.key()}
	if s.sem == nil {
		// Inline mode: the whole search runs on one goroutine, so the
		// table needs neither the mutex nor per-task wait channels.
		if f, ok := s.table[key]; ok {
			return f.res, f.err
		}
		f := &future{}
		f.res, f.err = s.searchGroup(id, req)
		s.table[key] = f
		return f.res, f.err
	}
	s.mu.Lock()
	if f, ok := s.table[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.res, f.err
	}
	f := &future{done: make(chan struct{})}
	s.table[key] = f
	s.mu.Unlock()
	defer func() {
		// Resolve the future even when the task panics (the panic keeps
		// unwinding): waiters must never block on a task that will not
		// finish, and they see an error rather than a nil result.
		if r := recover(); r != nil {
			f.res, f.err = nil, fmt.Errorf("cascades: panic in search task for group %d: %v", id, r)
			close(f.done)
			panic(r)
		}
	}()
	f.res, f.err = s.searchGroup(id, req)
	close(f.done)
	return f.res, f.err
}

// searchGroup does the actual work of one (group, props) task: implement
// every expression, enforce required properties on every candidate, and
// keep the cheapest. (Exploration already ran to fixpoint in run's
// sequential ExploreAll pre-pass, so the group's expression set is
// frozen.) Implementation rules (one per expression) and candidate
// enforcement — whose resource-aware partition exploration is the costly
// part — fan out across the worker pool; the final reduction scans
// candidates in expression/candidate order with a strict < comparison, so
// ties break identically to the sequential search.
func (s *search) searchGroup(id GroupID, req Props) (*searchResult, error) {
	g := s.memo.Group(id)
	if len(g.Exprs) == 0 {
		return nil, fmt.Errorf("cascades: empty group %d", id)
	}

	var cands []candidate
	switch {
	case len(g.Exprs) == 1: // the common case: no alternatives to fan out
		var err error
		cands, err = s.implement(g.Exprs[0], req)
		if err != nil {
			return nil, err
		}
	case s.sem == nil: // inline mode: no fan-out scaffolding
		for _, e := range g.Exprs {
			cs, err := s.implement(e, req)
			if err != nil {
				return nil, err
			}
			cands = append(cands, cs...)
		}
	default:
		candsByExpr := make([][]candidate, len(g.Exprs))
		fns := make([]func() error, len(g.Exprs))
		for i, e := range g.Exprs {
			fns[i] = func() error {
				var err error
				candsByExpr[i], err = s.implement(e, req)
				return err
			}
		}
		if err := fanOut(s.sem, fns...); err != nil {
			return nil, err
		}
		for _, cs := range candsByExpr {
			cands = append(cands, cs...)
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("cascades: no implementation for group %d (%v)", id, g.Exprs[0].Op)
	}

	if len(cands) == 1 || s.sem == nil {
		// Single candidate, or inline mode: enforce and reduce directly.
		var best *searchResult
		for i := range cands {
			final, delivered, err := s.enforce(cands[i].root, cands[i].delivered, req)
			if err != nil {
				return nil, err
			}
			cost := final.TotalCostEst()
			if best == nil || cost < best.cost {
				best = &searchResult{root: final, cost: cost, delivered: delivered}
			}
		}
		return best, nil
	}

	type enforced struct {
		root      *plan.Physical
		delivered Props
		cost      float64
	}
	outs := make([]enforced, len(cands))
	efns := make([]func() error, len(cands))
	for i, cand := range cands {
		efns[i] = func() error { // enforcement never recurses into groups
			final, delivered, err := s.enforce(cand.root, cand.delivered, req)
			if err != nil {
				return err
			}
			outs[i] = enforced{root: final, delivered: delivered, cost: final.TotalCostEst()}
			return nil
		}
	}
	if err := fanOut(s.sem, efns...); err != nil {
		return nil, err
	}

	var best *searchResult
	for i := range outs {
		if best == nil || outs[i].cost < best.cost {
			best = &searchResult{root: outs[i].root, cost: outs[i].cost, delivered: outs[i].delivered}
		}
	}
	return best, nil
}

// candidate is a physical alternative before enforcers.
type candidate struct {
	root      *plan.Physical
	delivered Props
}

// implement applies the implementation rules for one logical expression,
// producing costed physical candidates.
func (s *search) implement(e *Expr, req Props) ([]candidate, error) {
	switch e.Op {
	case plan.LGet:
		return s.implementGet(e)
	case plan.LSelect:
		return s.implementPassThrough(e, plan.PFilter, req, true)
	case plan.LProject:
		return s.implementPassThrough(e, plan.PProject, req, true)
	case plan.LProcess:
		return s.implementPassThrough(e, plan.PProcess, req, false)
	case plan.LOutput:
		return s.implementPassThrough(e, plan.POutput, req, true)
	case plan.LUnion:
		return s.implementUnion(e)
	case plan.LSort:
		return s.implementSort(e, req)
	case plan.LTopN:
		return s.implementTopN(e, req)
	case plan.LAggregate:
		return s.implementAggregate(e)
	case plan.LJoin:
		return s.implementJoin(e)
	default:
		return nil, fmt.Errorf("cascades: no implementation rule for %v", e.Op)
	}
}

// newNode builds a physical node from an expression and annotates its
// stats. Children must already carry partitions. Costing is deferred: the
// node is appended to pending, and the implementation rule prices its whole
// candidate set in one batched recostAll call before returning — the memo
// search's last scalar pricing path, batched.
func (s *search) newNode(pending *[]*plan.Physical, op plan.PhysicalOp, e *Expr, partitions int, children ...*plan.Physical) (*plan.Physical, error) {
	n := plan.NewPhysical(op, children...)
	if e != nil {
		n.Table = e.Table
		n.InputTemplate = e.InputTemplate
		n.Pred = e.Pred
		n.Keys = append([]plan.Column(nil), e.Keys...)
		n.UDF = e.UDF
		n.N = e.N
	}
	n.Partitions = partitions
	if err := s.catalog.AnnotateOne(n, s.jobSeed); err != nil {
		return nil, err
	}
	*pending = append(*pending, n)
	return n, nil
}

// recost re-computes the estimated cost of one operator (after its
// partition count changed).
func (s *search) recost(n *plan.Physical) {
	n.ExclusiveCostEst = s.cost.OperatorCost(n)
}

// recostAll prices a slice of operators (freshly built candidates, or a
// stage after a stage-wide partition change) in one batched call, borrowing
// a pooled cost buffer.
func (s *search) recostAll(ops []*plan.Physical) {
	if len(ops) == 0 {
		return
	}
	if len(ops) == 1 {
		// A batch of one gains nothing from the matrix path but would pay
		// its scratch management; batched and scalar costs are identical
		// row for row, so this keeps single-candidate rules cheap.
		s.recost(ops[0])
		return
	}
	g := gridPool.Get().(*gridBuf)
	if cap(g.costs) < len(ops) {
		g.costs = make([]float64, len(ops))
	}
	costs := g.costs[:len(ops)]
	costBatch(s.cost, ops, costs)
	for i, op := range ops {
		op.ExclusiveCostEst = costs[i]
	}
	gridPool.Put(g)
}

// recostPending prices an implementation rule's freshly built candidate
// set, attributing the time to the costing phase on traced runs (the
// always-on tier leaves this leaf unstamped — it fires once per rule, and
// per-rule clock reads would eat the instrumentation overhead budget).
func (s *search) recostPending(ops []*plan.Physical) {
	if so := s.obs; so.fine() {
		t0 := time.Now()
		s.recostAll(ops)
		so.add(phaseCosting, time.Since(t0))
		return
	}
	s.recostAll(ops)
}

func (s *search) implementGet(e *Expr) ([]candidate, error) {
	pending := make([]*plan.Physical, 0, 4)
	n, err := s.newNode(&pending, plan.PExtract, e, 1)
	if err != nil {
		return nil, err
	}
	delivered := Props{}
	ts, ok := s.catalog.Table(e.Table)
	if ok && ts.PartitionedOn != "" && ts.Partitions > 0 {
		// Pre-partitioned stored input: partitioning is fixed by layout.
		n.Partitions = ts.Partitions
		n.FixedPartitions = true
		delivered.Part = Partitioning{Kind: HashPartition, Keys: []plan.Column{plan.Column(ts.PartitionedOn)}}
	} else {
		n.Partitions = costmodel.DerivePartitions(n, s.maxPartitions)
	}
	s.recostPending(pending)
	return []candidate{{root: n, delivered: delivered}}, nil
}

// implementPassThrough covers unary operators that preserve partitioning
// (and, when keepOrder, ordering): Filter, Project, Process, Output. The
// parent's requirement is forwarded to the child so enforcers land as low
// as possible.
func (s *search) implementPassThrough(e *Expr, op plan.PhysicalOp, req Props, keepOrder bool) ([]candidate, error) {
	childReq := Props{Part: req.Part}
	if keepOrder {
		childReq.Order = req.Order
	}
	child, err := s.optimizeGroup(e.Child[0], childReq)
	if err != nil {
		return nil, err
	}
	cr := child.root.CloneTopStage()
	pending := make([]*plan.Physical, 0, 4)
	n, err := s.newNode(&pending, op, e, cr.Partitions, cr)
	if err != nil {
		return nil, err
	}
	s.recostPending(pending)
	delivered := child.delivered
	if !keepOrder {
		delivered.Order = nil
	}
	return []candidate{{root: n, delivered: delivered}}, nil
}

func (s *search) implementUnion(e *Expr) ([]candidate, error) {
	// Union branches are independent subtrees: fan their optimizations
	// across the worker pool.
	results := make([]*searchResult, len(e.Child))
	tasks := make([]childTask, len(e.Child))
	for i, cg := range e.Child {
		tasks[i] = childTask{dst: &results[i], id: cg, req: Props{}}
	}
	if err := s.optimizeChildren(tasks); err != nil {
		return nil, err
	}
	children := make([]*plan.Physical, len(results))
	maxP := 1
	for i, c := range results {
		cc := c.root.CloneTopStage()
		children[i] = cc
		if cc.Partitions > maxP {
			maxP = cc.Partitions
		}
	}
	pending := make([]*plan.Physical, 0, 4)
	n, err := s.newNode(&pending, plan.PUnionAll, e, maxP, children...)
	if err != nil {
		return nil, err
	}
	s.recostPending(pending)
	return []candidate{{root: n, delivered: Props{}}}, nil
}

func (s *search) implementSort(e *Expr, req Props) ([]candidate, error) {
	child, err := s.optimizeGroup(e.Child[0], Props{Part: req.Part})
	if err != nil {
		return nil, err
	}
	cr := child.root.CloneTopStage()
	pending := make([]*plan.Physical, 0, 4)
	n, err := s.newNode(&pending, plan.PSort, e, cr.Partitions, cr)
	if err != nil {
		return nil, err
	}
	s.recostPending(pending)
	delivered := Props{Part: child.delivered.Part, Order: Ordering(e.Keys)}
	return []candidate{{root: n, delivered: delivered}}, nil
}

func (s *search) implementTopN(e *Expr, req Props) ([]candidate, error) {
	// Top-N consumes sorted input; the sort requirement is pushed down.
	child, err := s.optimizeGroup(e.Child[0], Props{Part: req.Part, Order: Ordering(e.Keys)})
	if err != nil {
		return nil, err
	}
	cr := child.root.CloneTopStage()
	pending := make([]*plan.Physical, 0, 4)
	n, err := s.newNode(&pending, plan.PTopN, e, cr.Partitions, cr)
	if err != nil {
		return nil, err
	}
	s.recostPending(pending)
	delivered := Props{Part: child.delivered.Part, Order: Ordering(e.Keys)}
	return []candidate{{root: n, delivered: delivered}}, nil
}

// aggPartitioning is the partitioning an aggregation requires: hash on the
// group keys, or a single partition for global aggregates.
func aggPartitioning(keys []plan.Column) Partitioning {
	if len(keys) == 0 {
		return Partitioning{Kind: SinglePartition}
	}
	return Partitioning{Kind: HashPartition, Keys: keys}
}

func (s *search) implementAggregate(e *Expr) ([]candidate, error) {
	part := aggPartitioning(e.Keys)

	// The three aggregation alternatives need three independent child
	// optimizations (hash-partitioned, additionally key-sorted, and
	// unconstrained for the two-phase plan): fan them out together.
	var hashChild, streamChild, localChild *searchResult
	tasks := make([]childTask, 0, 3)
	tasks = append(tasks,
		childTask{dst: &hashChild, id: e.Child[0], req: Props{Part: part}},
		childTask{dst: &localChild, id: e.Child[0], req: Props{}},
	)
	if len(e.Keys) > 0 {
		tasks = append(tasks, childTask{dst: &streamChild, id: e.Child[0], req: Props{Part: part, Order: Ordering(e.Keys)}})
	}
	if err := s.optimizeChildren(tasks); err != nil {
		return nil, err
	}

	pending := make([]*plan.Physical, 0, 4)
	var cands []candidate

	// Hash aggregate over hash-partitioned input.
	{
		cr := hashChild.root.CloneTopStage()
		n, err := s.newNode(&pending, plan.PHashAggregate, e, cr.Partitions, cr)
		if err != nil {
			return nil, err
		}
		cands = append(cands, candidate{root: n, delivered: Props{Part: part}})
	}

	// Stream aggregate over hash-partitioned, key-sorted input.
	if streamChild != nil {
		cr := streamChild.root.CloneTopStage()
		n, err := s.newNode(&pending, plan.PStreamAggregate, e, cr.Partitions, cr)
		if err != nil {
			return nil, err
		}
		cands = append(cands, candidate{root: n, delivered: Props{Part: part, Order: Ordering(e.Keys)}})
	}

	// Two-phase: local partial aggregation before the shuffle, then the
	// final hash aggregate (the paper's Q17 change).
	{
		cr := localChild.root.CloneTopStage()
		partial, err := s.newNode(&pending, plan.PPartialAggregate, e, cr.Partitions, cr)
		if err != nil {
			return nil, err
		}
		shuffled, err := s.addExchange(partial, part)
		if err != nil {
			return nil, err
		}
		final, err := s.newNode(&pending, plan.PHashAggregate, e, shuffled.Partitions, shuffled)
		if err != nil {
			return nil, err
		}
		cands = append(cands, candidate{root: final, delivered: Props{Part: part}})
	}
	s.recostPending(pending)
	return cands, nil
}

func (s *search) implementJoin(e *Expr) ([]candidate, error) {
	part := Partitioning{Kind: HashPartition, Keys: e.Keys}
	ord := Ordering(e.Keys)

	// Four independent child optimizations back the two join alternatives:
	// hash join wants both sides hash-partitioned, merge join additionally
	// key-sorted. Fan all four out across the worker pool.
	var lh, rh, lm, rm *searchResult
	tasks := []childTask{
		{dst: &lh, id: e.Child[0], req: Props{Part: part}},
		{dst: &rh, id: e.Child[1], req: Props{Part: part}},
		{dst: &lm, id: e.Child[0], req: Props{Part: part, Order: ord}},
		{dst: &rm, id: e.Child[1], req: Props{Part: part, Order: ord}},
	}
	if err := s.optimizeChildren(tasks); err != nil {
		return nil, err
	}

	pending := make([]*plan.Physical, 0, 4)
	var cands []candidate
	hj, err := s.buildJoin(&pending, plan.PHashJoin, e, lh, rh)
	if err != nil {
		return nil, err
	}
	cands = append(cands, hj)
	mj, err := s.buildJoin(&pending, plan.PMergeJoin, e, lm, rm)
	if err != nil {
		return nil, err
	}
	mj.delivered.Order = ord
	cands = append(cands, mj)
	s.recostPending(pending)
	return cands, nil
}

// buildJoin copies the children's top stages, aligns their partition counts (children of
// a co-partitioned join must agree) and constructs the join node.
func (s *search) buildJoin(pending *[]*plan.Physical, op plan.PhysicalOp, e *Expr, l, r *searchResult) (candidate, error) {
	lp := l.root.CloneTopStage()
	rp := r.root.CloneTopStage()
	if err := s.alignPartitions(e, &lp, &rp); err != nil {
		return candidate{}, err
	}
	n, err := s.newNode(pending, op, e, lp.Partitions, lp, rp)
	if err != nil {
		return candidate{}, err
	}
	return candidate{
		root:      n,
		delivered: Props{Part: Partitioning{Kind: HashPartition, Keys: e.Keys}},
	}, nil
}
