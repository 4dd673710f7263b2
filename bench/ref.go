package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// The reference loop calibrates the host. On a shared 2-vCPU host the speed
// of the same binary drifts by ±15% over minutes as neighbours contend for
// caches and memory, and every timing drifts with it. The window therefore
// alternates short slices of the workload with slices of this loop — the
// same closed loop over loopback, through net/http and encoding/json only,
// with bodies the size of a solve, against a handler that does no work. It
// contains no lattold code, so no change to the repository moves it, and the
// end-to-end timings are reported relative to it: the host's drift cancels
// in the ratio, a change to lattold does not. Across sets of ten runs twenty
// minutes to hours apart, the medians of raw timings moved by up to 47% and
// those of these ratios by at most 15%.
//
// The latencies are divided by the reference's typical latency, the
// geometric mean of its median and its mean: workloads dominated by round
// trips drift with the reference's median, solver-heavy ones with its mean,
// and over fifty runs the geometric mean kept the worst spread of the ratio
// lowest (8% against 12% for either alone).

// refSetupBase is the reference set-up time (refSetup) on the bench host (2
// vCPUs, Intel Xeon, Go 1.24) at its quieter times. setup_s, which must read
// in seconds, is the median ratio of each node set-up to the reference
// set-up run right after it, times refSetupBase: the set-up time at that
// host speed. Over ten runs per workload the raw set-up times spread by
// 25–53%, the paired ratios by 3–6% (18% on solve-cold, whose set-up is
// mostly the grid build).
const refSetupBase = 120 * time.Microsecond

// refRequest and refResponse mirror the sizes of a solve request and answer.
type refRequest struct {
	K          int     `json:"k"`
	Threads    int     `json:"threads"`
	Runlength  float64 `json:"runlength"`
	MemoryTime float64 `json:"memory_time"`
	SwitchTime float64 `json:"switch_time"`
	PRemote    float64 `json:"p_remote"`
	Psw        float64 `json:"psw"`
}

type refResponse struct {
	Metrics refMetrics `json:"metrics"`
}

type refMetrics struct {
	Up             float64 `json:"u_p"`
	LambdaProc     float64 `json:"lambda"`
	LambdaNet      float64 `json:"lambda_net"`
	SObs           float64 `json:"s_obs"`
	LObs           float64 `json:"l_obs"`
	CycleTime      float64 `json:"cycle_time"`
	MemUtilization float64 `json:"mem_utilization"`
	OutUtilization float64 `json:"out_utilization"`
	InUtilization  float64 `json:"in_utilization"`
	Iterations     int     `json:"iterations"`
}

// refHandler decodes the request and answers a fixed-shape body derived from
// it, indented as lattold indents.
func refHandler(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	var req refRequest
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u := req.Runlength / (req.Runlength + req.MemoryTime)
	resp := refResponse{Metrics: refMetrics{
		Up: u, LambdaProc: u / req.Runlength, LambdaNet: u * req.PRemote / req.Runlength,
		SObs: req.SwitchTime * 1.5, LObs: req.MemoryTime * 1.2, CycleTime: req.Runlength / u,
		MemUtilization: u, OutUtilization: u * req.PRemote, InUtilization: u * req.PRemote * req.Psw,
		Iterations: req.Threads,
	}}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp) // the client's read reports a broken response
}

// refLoop is the reference server and its closed-loop senders.
type refLoop struct {
	url     string
	hs      *http.Server
	served  chan error
	clients []*http.Client
	body    []byte

	lat  []float64 // µs
	busy time.Duration
	errs int
}

func startRef(senders int) (*refLoop, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference loop: %w", err)
	}
	body, err := json.Marshal(refRequest{K: 4, Threads: 8, Runlength: 10, MemoryTime: 10, SwitchTime: 10, PRemote: 0.2, Psw: 0.5})
	if err != nil {
		ln.Close()
		return nil, err
	}
	rl := &refLoop{
		url:    "http://" + ln.Addr().String() + "/",
		hs:     &http.Server{Handler: http.HandlerFunc(refHandler), ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
		body:   body,
	}
	go func() { rl.served <- rl.hs.Serve(ln) }()
	for i := 0; i < senders; i++ {
		rl.clients = append(rl.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return rl, nil
}

// phase runs the reference closed loop until the deadline; record keeps its
// latencies.
func (rl *refLoop) phase(until time.Time, record bool) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for _, c := range rl.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var lat []float64
			errs := 0
			for time.Now().Before(until) {
				t := time.Now()
				if err := rl.call(c); err != nil {
					errs++
					continue
				}
				lat = append(lat, float64(time.Since(t))/1e3)
			}
			if record {
				mu.Lock()
				rl.lat = append(rl.lat, lat...)
				rl.errs += errs
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if record {
		rl.busy += time.Since(start)
	}
}

func (rl *refLoop) call(c *http.Client) error {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, rl.url, bytes.NewReader(rl.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reference loop: HTTP %d", resp.StatusCode)
	}
	return nil
}

func (rl *refLoop) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = rl.hs.Shutdown(ctx) // nothing is in flight between phases
	if err := <-rl.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "lattolbench: reference loop: %v\n", err)
	}
	for _, c := range rl.clients {
		c.CloseIdleConnections()
	}
}

// refSetup starts a stdlib server the way startNodes starts a node — a
// loopback listener, an http.Server, one GET over a new connection — and
// returns how long that took; the server is shut down before it returns.
func refSetup() (time.Duration, error) {
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("reference set-up: %w", err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Get("http://" + ln.Addr().String() + "/")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	took := time.Since(start)
	tr.CloseIdleConnections()
	_ = hs.Shutdown(context.Background()) // its only connection is closed
	<-served
	if err != nil {
		return 0, fmt.Errorf("reference set-up: %w", err)
	}
	return took, nil
}
