// Command cleoserve runs the multi-tenant CLEO optimizer service: an
// HTTP/JSON API over named optimizer sessions with telemetry ingestion,
// threshold-triggered background retraining and versioned model hot-swap
// (the paper's Section 5.1 feedback loop as a long-lived server).
//
// Usage:
//
//	cleoserve [-addr :8080] [-exec-backend simulate] [-retrain-threshold 500]
//	          [-ingest-buffer 128] [-parallelism 0]
//	          [-state-dir ""] [-fsync] [-retain-snapshots 0]
//	          [-node-id ""] [-peers ""] [-replication-factor 2] [-coalesce]
//	          [-debug-addr ""] [-slow-query 0]
//
// -exec-backend selects how queries execute: "simulate" (default) models
// latencies on the simulated cluster; "stream" runs them on the in-process
// streaming vectorized executor, so responses carry real result rows and
// the feedback loop trains on measured wall-clock operator times.
//
// With -state-dir, tenant state is durable: every published model version
// is snapshotted and ingested telemetry is journaled, and a restart
// against the same directory resumes warm — latest models live under
// their original version ids, pending telemetry replayed into the
// retraining pipeline.
//
// Cluster mode (-node-id + -peers) shards tenants across nodes on a
// consistent-hash ring: each tenant has an owner plus replication-factor-1
// followers, model publishes replicate snapshot artifacts to the
// followers, requests landing on a non-owner node are forwarded to the
// owner (failing over down the replica list when it is unreachable), and
// identical in-flight optimize requests coalesce into one search
// (-coalesce, on by default). -peers lists every member as id=baseURL
// pairs, comma-separated, and must include this node's own id:
//
//	cleoserve -addr :8081 -node-id n1 -state-dir /var/lib/cleo/n1 \
//	  -peers n1=http://h1:8081,n2=http://h2:8082,n3=http://h3:8083
//
// Observability: GET /metrics serves the full metric registry in
// Prometheus text format; -debug-addr starts a second listener with
// net/http/pprof (/debug/pprof/) plus the same /metrics, kept off the
// public address; -slow-query logs requests slower than the threshold
// with tenant and trace id; and `"trace": true` on /v1/query returns an
// EXPLAIN ANALYZE-style span tree in the response.
//
// Endpoints:
//
//	POST /v1/query    {"tenant":"ads","mode":"run","plan":{...},"tables":{...}}
//	POST /v1/retrain  {"tenant":"ads"}
//	POST /v1/tenants/{name}/snapshot
//	GET  /v1/models?tenant=ads
//	GET  /v1/stats[?tenant=ads]
//	GET  /metrics
//	GET  /healthz
//
// Example:
//
//	curl -s localhost:8080/v1/query -d '{
//	  "tenant": "ads", "seed": 1,
//	  "tables": {"clicks_2026_06_12": {"Rows": 2e7, "RowLength": 120}},
//	  "plan": {"op":"Output","children":[{"op":"Aggregate","keys":["user"],
//	    "children":[{"op":"Select","pred":"market=us","children":[
//	      {"op":"Get","table":"clicks_2026_06_12","template":"clicks_"}]}]}]}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cleo/internal/cluster"
	"cleo/internal/obs"
	"cleo/internal/serve"
)

// parsePeers parses the -peers flag: comma-separated id=baseURL pairs.
func parsePeers(s string) (map[string]string, error) {
	peers := map[string]string{}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, base, found := strings.Cut(pair, "=")
		if !found || id == "" || base == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=baseURL)", pair)
		}
		peers[id] = strings.TrimRight(base, "/")
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return peers, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	execBackend := flag.String("exec-backend", "simulate",
		`query execution backend: "simulate" (modeled latencies) or "stream" (in-process streaming executor, measured latencies)`)
	retrainThreshold := flag.Int("retrain-threshold", 500,
		"new telemetry records that trigger a background retrain (0 disables)")
	ingestBuffer := flag.Int("ingest-buffer", 128, "per-tenant telemetry channel capacity")
	parallelism := flag.Int("parallelism", 0,
		"per-tenant optimizer search parallelism (0 = 1: rely on request-level concurrency)")
	execWorkers := flag.Int("exec-workers", 0,
		"streaming executor pipeline width per stage (0 = follow -parallelism; only with -exec-backend stream)")
	stateDir := flag.String("state-dir", "",
		"durable tenant state directory: snapshots + telemetry journal (empty = in-memory only)")
	fsync := flag.Bool("fsync", false, "fsync the telemetry journal on every append (model snapshots and the table-statistics log always sync)")
	retainSnapshots := flag.Int("retain-snapshots", 0, "snapshots kept per tenant (0 = all)")
	nodeID := flag.String("node-id", "",
		"this node's id in cluster mode (must be a key of -peers; empty = single-node)")
	peersFlag := flag.String("peers", "",
		"cluster membership as comma-separated id=baseURL pairs, including this node")
	replicationFactor := flag.Int("replication-factor", 2,
		"nodes holding each tenant (owner + followers; clamped to the cluster size)")
	coalesce := flag.Bool("coalesce", true,
		"coalesce identical in-flight optimize requests into one search per tenant")
	debugAddr := flag.String("debug-addr", "",
		"debug listen address serving net/http/pprof under /debug/pprof/ plus /metrics (empty = disabled)")
	slowQuery := flag.Duration("slow-query", 0,
		"log /v1/query requests slower than this threshold, with tenant and trace id (0 disables)")
	flag.Parse()

	if *execBackend != "simulate" && *execBackend != "stream" {
		fmt.Fprintf(os.Stderr, "cleoserve: unknown -exec-backend %q (want simulate or stream)\n", *execBackend)
		os.Exit(1)
	}
	if *stateDir != "" {
		// Fail fast on an unusable state directory rather than silently
		// serving without durability.
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "cleoserve: state dir:", err)
			os.Exit(1)
		}
	}
	if (*nodeID == "") != (*peersFlag == "") {
		fmt.Fprintln(os.Stderr, "cleoserve: -node-id and -peers must be set together")
		os.Exit(1)
	}
	reg := obs.NewRegistry()
	svc := serve.NewService(serve.Config{
		StreamingExec:    *execBackend == "stream",
		RetrainThreshold: *retrainThreshold,
		IngestBuffer:     *ingestBuffer,
		Parallelism:      *parallelism,
		ExecWorkers:      *execWorkers,
		Coalesce:         *coalesce,
		StateDir:         *stateDir,
		Fsync:            *fsync,
		RetainSnapshots:  *retainSnapshots,
		Metrics:          reg,
		SlowQuery:        *slowQuery,
	})
	var clu *cluster.Cluster
	if *nodeID != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cleoserve:", err)
			os.Exit(1)
		}
		clu, err = cluster.New(cluster.Config{
			NodeID:            *nodeID,
			Peers:             peers,
			ReplicationFactor: *replicationFactor,
			Metrics:           reg,
		}, svc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cleoserve:", err)
			os.Exit(1)
		}
		fmt.Printf("cleoserve cluster mode: node %s of %d (replication factor %d)\n",
			*nodeID, len(peers), clu.ReplicationFactor())
	}
	if *debugAddr != "" {
		// The debug listener stays separate so pprof and raw metrics can
		// bind to localhost while the API serves publicly.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("/metrics", reg.Handler())
		go func() {
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				fmt.Fprintln(os.Stderr, "cleoserve: debug listener:", err)
			}
		}()
		fmt.Printf("cleoserve debug (pprof, metrics) on %s\n", *debugAddr)
	}
	if *stateDir != "" {
		if names := svc.TenantNames(); len(names) > 0 {
			fmt.Printf("cleoserve: recovered %d tenant(s) from %s: %v\n", len(names), *stateDir, names)
		}
	}
	handler := serve.NewHandler(svc)
	if clu != nil {
		// The cluster layer wraps the API: tenant requests route to their
		// owner, and the internal replication endpoints come live.
		handler = clu.Handler(handler)
	}
	server := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = server.Shutdown(shutdownCtx)
	}()

	fmt.Printf("cleoserve listening on %s (backend %s, retrain threshold %d)\n",
		*addr, *execBackend, *retrainThreshold)
	if err := server.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cleoserve:", err)
		os.Exit(1)
	}
	// ListenAndServe returns as soon as Shutdown *starts*; wait for
	// in-flight requests to drain before closing the service, so no
	// request's telemetry is dropped by a closed ingestion pipeline. Then
	// the cluster layer finishes in-flight replication pushes, and finally
	// the service drains its ingestion queues and syncs every tenant's
	// telemetry journal to disk — the graceful-shutdown contract: a
	// SIGTERM loses neither acknowledged requests nor their telemetry.
	<-shutdownDone
	if clu != nil {
		clu.Close()
	}
	svc.Close()
	fmt.Println("cleoserve: drained, journals flushed, stopped")
}
