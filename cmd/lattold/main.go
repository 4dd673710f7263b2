// Command lattold is the model-evaluation daemon: it serves tolerance-index
// and solver evaluations over HTTP/JSON with result caching, request
// coalescing, admission control and a plaintext metrics endpoint.
//
// Usage:
//
//	lattold [-addr :8080] [-workers 0] [-queue 0] [-cache 4096]
//	        [-timeout 10s] [-drain 15s] [-maxsweep 1024] [-maxbatch 1024]
//	        [-store DIR] [-advertise URL] [-peers URL,URL,...]
//	        [-rate 0] [-burst 0]
//
// Endpoints:
//
//	POST /v1/solve      one model configuration → performance measures
//	POST /v1/tolerance  model + subsystem → tolerance index (real & ideal)
//	POST /v1/sweep      model + knob range → per-point measures and indices
//	POST /v1/batch      many independent solve/tolerance items in one round
//	                    trip; cache misses are solved as one lockstep batch
//	GET  /healthz       liveness (503 while draining)
//	GET  /metrics       counters and latency histograms, plaintext
//
// With -store DIR the daemon keeps a content-addressed artifact store at DIR:
// at boot it loads (or builds and persists) the default surrogate grid so
// max_error requests are served by interpolation, and restores the previous
// run's LRU snapshot; at shutdown it snapshots the LRU back. Damaged or
// version-mismatched artifacts are logged and rebuilt — the daemon always
// comes up, at worst cold.
//
// With -peers the daemon is one node of a consistent-hash cluster: each
// canonical request key has one owner node, non-owners forward the raw
// request there and relay the answer, so a key is solved (and cached) once
// cluster-wide no matter which node traffic enters through. -advertise is
// this node's own URL as the peers reach it (required with -peers). Every
// node is started with the same idea of the membership; a failed forward
// falls back to a local solve, so a down peer degrades throughput, not
// availability.
//
// With -rate the POST endpoints are admission-controlled per client
// (X-Lattold-Client header, else remote host) by a token bucket of -rate
// requests/second sustained and -burst capacity; peer forwards are exempt.
//
// SIGINT/SIGTERM drains gracefully: the node leaves the ring (new incoming
// forwards are refused with 503, flipping peers to their local fallback),
// the listener stops accepting, in-flight requests finish (bounded by
// -drain), then the worker pool shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lattol/internal/cluster"
	"lattol/internal/serve"
	"lattol/internal/surrogate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lattold: ")

	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "solver workers (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "pending-solve queue depth (0 = 8x workers)")
		cacheN    = flag.Int("cache", 4096, "cached results kept for reuse")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request evaluation budget")
		drain     = flag.Duration("drain", 15*time.Second, "graceful shutdown budget")
		maxSweep  = flag.Int("maxsweep", 1024, "max points per sweep request")
		maxBatch  = flag.Int("maxbatch", 1024, "max items per batch request")
		storeDir  = flag.String("store", "", "artifact store directory for the surrogate grid and LRU snapshot (empty = in-memory only)")
		advertise = flag.String("advertise", "", "this node's URL as peers reach it (required with -peers)")
		peers     = flag.String("peers", "", "comma-separated peer URLs forming the cluster ring")
		rate      = flag.Float64("rate", 0, "per-client sustained requests/second (0 = no rate limit)")
		burst     = flag.Float64("burst", 0, "per-client burst capacity (0 = 2x rate)")
	)
	flag.Parse()

	srv := serve.NewServer(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheN,
		SolveTimeout:   *timeout,
		MaxSweepPoints: *maxSweep,
		MaxBatchItems:  *maxBatch,
		RateLimit:      *rate,
		RateBurst:      *burst,
	})

	var cl *cluster.Cluster
	if *peers != "" {
		if *advertise == "" {
			log.Fatal("-peers requires -advertise (this node's own URL)")
		}
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		var err error
		if cl, err = cluster.New(*advertise, list, cluster.Options{}); err != nil {
			log.Fatalf("cluster: %v", err)
		}
		srv.SetCluster(cl)
		log.Printf("cluster ring: %d nodes, self %s", cl.Size(), cl.Self())
	}

	var store *surrogate.Store
	if *storeDir != "" {
		var err error
		if store, err = surrogate.NewStore(*storeDir); err != nil {
			log.Fatalf("store: %v", err)
		}
		grid, err := surrogate.OpenGrid(store, surrogate.DefaultSpec(), log.Printf)
		if err != nil {
			log.Fatalf("surrogate grid: %v", err)
		}
		srv.Evaluator().SetSurrogate(grid)
		log.Printf("surrogate grid ready: %d nodes, ref %s", grid.Nodes(), grid.Spec().RefName())
		if n := srv.Evaluator().RestoreCache(store, log.Printf); n > 0 {
			log.Printf("restored %d cached results from snapshot", n)
		}
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure here (Shutdown is the
		// other exit path, taken below).
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("signal received, draining (budget %s)", *drain)
	if cl != nil {
		// Leave the ring first: incoming forwards get 503 (origins fall back
		// to local solves) while the listener drains what it already accepted.
		cl.Leave()
		log.Printf("left the cluster ring")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	// The listener is quiet; drain the worker pool.
	srv.Close()
	if store != nil {
		if n, err := srv.Evaluator().SnapshotCache(store); err != nil {
			log.Printf("cache snapshot: %v", err)
		} else {
			log.Printf("snapshotted %d cached results", n)
		}
	}
	log.Printf("drained, exiting")
}
