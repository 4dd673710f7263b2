package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"lattol/internal/cluster"
	"lattol/internal/serve"
	"lattol/internal/surrogate"
)

// node is one in-process lattold, built exactly as cmd/lattold builds it:
// serve.NewServer with the daemon's default configuration behind an
// http.Server with a 5 s header timeout, on a real loopback listener.
type node struct {
	url    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
}

// nodeSet is the lattold topology of one workload.
type nodeSet struct {
	nodes []*node
	hc    *http.Client // health probes and /metrics scrapes
}

// startNodes starts n nodes (a ring when n > 1) and waits until every one
// answers /healthz. With grid, each node serves the default surrogate grid,
// built by the surrogate.Build call `lattold -store` makes on a cold store
// (the benchmark does not persist it). A non-nil rec wraps the nodes'
// handlers and peer transports in span recorders.
func startNodes(n int, grid bool, rec *recorder) (*nodeSet, error) {
	ns := &nodeSet{hc: &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns[:i])
			return nil, fmt.Errorf("listening: %w", err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	for i, ln := range lns {
		srv := serve.NewServer(serve.Config{})
		if grid {
			g, err := surrogate.Build(surrogate.DefaultSpec(), surrogate.BuildOptions{})
			if err != nil {
				srv.Close()
				closeListeners(lns[i:])
				ns.close()
				return nil, fmt.Errorf("building surrogate grid: %w", err)
			}
			srv.Evaluator().SetSurrogate(g)
		}
		if n > 1 {
			var opts cluster.Options
			if rec != nil {
				opts.NewTransport = tracedPeerTransport(rec, urls[i])
			}
			peers := append(append([]string(nil), urls[:i]...), urls[i+1:]...)
			cl, err := cluster.New(urls[i], peers, opts)
			if err != nil {
				srv.Close()
				closeListeners(lns[i:])
				ns.close()
				return nil, fmt.Errorf("cluster: %w", err)
			}
			srv.SetCluster(cl)
		}
		handler := srv.Handler()
		if rec != nil {
			handler = tracedHandler(rec, handler)
		}
		nd := &node{
			url:    urls[i],
			srv:    srv,
			hs:     &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
			served: make(chan error, 1),
		}
		go func(ln net.Listener) { nd.served <- nd.hs.Serve(ln) }(ln)
		ns.nodes = append(ns.nodes, nd)
	}
	for _, nd := range ns.nodes {
		if err := ns.healthy(nd); err != nil {
			ns.close()
			return nil, err
		}
	}
	return ns, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// healthy waits until nd answers GET /healthz with 200.
func (ns *nodeSet) healthy(nd *node) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := ns.hc.Get(nd.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s never became healthy: %w", nd.url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains every node the way lattold's shutdown does: stop the
// listener, let in-flight requests finish, then drain the worker pool.
func (ns *nodeSet) close() {
	for _, nd := range ns.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = nd.hs.Shutdown(ctx) // a node still busy after 5 s is abandoned with the process
		cancel()
		if err := <-nd.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "lattolbench: node %s: %v\n", nd.url, err)
		}
		nd.srv.Close()
	}
	ns.nodes = nil
	ns.hc.CloseIdleConnections()
}

// scrape reads GET /metrics from every node and sums each sample across
// nodes, keyed by the sample's name with its labels.
func (ns *nodeSet) scrape() (counters, error) {
	sum := counters{}
	for _, nd := range ns.nodes {
		resp, err := ns.hc.Get(nd.url + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", nd.url, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			sum[name] += v
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", nd.url, err)
		}
	}
	return sum, nil
}

// counters is one summed /metrics scrape.
type counters map[string]float64

// delta returns after − before for one sample.
func delta(before, after counters, name string) float64 { return after[name] - before[name] }
