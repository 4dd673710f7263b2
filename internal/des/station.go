package des

import (
	"lattol/internal/stats"
)

// Job is an opaque customer passing through stations.
type Job interface{}

// Station is an FCFS queue with one or more parallel servers and a
// service-time distribution — the building block matching the paper's
// subsystem model (multiple servers model multiported memories and pipelined
// switches). When a job finishes service the station's Done callback
// receives it along with the time it arrived at the station, so callers can
// accumulate residence times.
type Station struct {
	Name    string
	Service stats.Dist
	// Servers is the number of parallel servers; 0 means 1.
	Servers int
	// Priority, when non-nil, ranks waiting jobs: at each service-start the
	// highest-priority waiting job is selected (FIFO among equals). A nil
	// Priority gives plain FCFS.
	Priority func(job Job) int
	// Done is invoked at service completion with the job, its arrival time
	// at this station, and the completion time.
	Done func(job Job, arrived, now float64)

	engine *Engine
	queue  jobRing
	inUse  int
	// nsrv caches servers() (set by Attach) so the hot path skips the branch;
	// invSrv is its reciprocal so the busy-fraction update multiplies instead
	// of dividing.
	nsrv   int
	invSrv float64
	// svc is Service compiled into a direct-dispatch sampler (set by Attach)
	// so drawing a service time costs no interface call per event.
	svc stats.Sampler

	// stat tracks the busy fraction and time-average number in system.
	stat     track
	inSystem int
	// Residence accumulates per-job residence times (queueing + service).
	Residence stats.Mean
	// Served counts completed services since the last ResetStats.
	Served int64
}

type queuedJob struct {
	job     Job
	arrived float64
}

// track accumulates the station's two time-weighted statistics — busy
// fraction and number in system — through one shared timestamp chain, so the
// per-event bookkeeping pays one dt computation and one set of stores instead
// of driving two independent stats.TimeWeighted accumulators. Both signals
// change at the same event times, which is what makes the fusion lossless.
type track struct {
	lastT    float64
	busy     float64
	inSys    float64
	busyArea float64
	sysArea  float64
	duration float64
}

// set records that the station holds the given busy fraction and
// number-in-system from time t onward. Non-increasing timestamps contribute
// nothing (multiple updates within one event instant collapse).
func (w *track) set(t, busy, inSys float64) {
	dt := t - w.lastT
	if dt > 0 {
		w.busyArea += w.busy * dt
		w.sysArea += w.inSys * dt
		w.duration += dt
	}
	w.lastT, w.busy, w.inSys = t, busy, inSys
}

// resetStats discards accumulated areas but keeps the current values, so
// measurement can start after a warm-up period.
func (w *track) resetStats(t float64) {
	w.busyArea, w.sysArea, w.duration = 0, 0, 0
	w.lastT = t
}

// meansAt returns the two time-averages over the observed span, closing the
// open segment at time t. With no observed span it returns zeros.
func (w *track) meansAt(t float64) (busy, inSys float64) {
	bArea, sArea, dur := w.busyArea, w.sysArea, w.duration
	if dt := t - w.lastT; dt > 0 {
		bArea += w.busy * dt
		sArea += w.inSys * dt
		dur += dt
	}
	if dur <= 0 {
		return 0, 0
	}
	return bArea / dur, sArea / dur
}

// jobRing is a FIFO of queued jobs backed by a circular buffer: the
// steady-state arrive/serve cycle neither allocates nor memmoves the
// remaining queue, unlike a slice whose head is repeatedly cut off.
type jobRing struct {
	buf  []queuedJob
	head int
	n    int
}

func (r *jobRing) idx(i int) int {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return j
}

func (r *jobRing) at(i int) *queuedJob { return &r.buf[r.idx(i)] }

func (r *jobRing) push(j queuedJob) {
	if r.n == len(r.buf) {
		nb := make([]queuedJob, 2*len(r.buf)+4)
		for i := 0; i < r.n; i++ {
			nb[i] = r.buf[r.idx(i)]
		}
		r.buf = nb
		r.head = 0
	}
	r.buf[r.idx(r.n)] = j
	r.n++
}

// removeAt removes and returns the i-th queued job (0 = head), preserving
// the FIFO order of the rest. Removing the head is O(1); interior removals
// (priority selection) shift the elements before i back by one. The vacated
// slot is not zeroed — the stale job reference lingers until the slot is
// reused, which only pins long-lived simulation objects; skipping the clear
// saves a pointer-bearing store (and its write barrier) per service start.
// Station.Reset clears the buffer wholesale.
func (r *jobRing) removeAt(i int) queuedJob {
	out := r.buf[r.idx(i)]
	for k := i; k > 0; k-- {
		r.buf[r.idx(k)] = r.buf[r.idx(k-1)]
	}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return out
}

func (s *Station) servers() int {
	if s.Servers < 1 {
		return 1
	}
	return s.Servers
}

// Attach binds the station to an engine. It must be called before Arrive,
// and after Service/Servers are set (it compiles both into the hot path).
func (s *Station) Attach(e *Engine) {
	s.engine = e
	s.nsrv = s.servers()
	s.invSrv = 1 / float64(s.nsrv)
	s.svc = stats.MakeSampler(s.Service)
	s.stat = track{lastT: e.Now()}
}

// note records the station's occupancy (busy fraction, number in system) as
// of time now; called once at the end of each state-changing entry point.
func (s *Station) note(now float64) {
	s.stat.set(now, float64(s.inUse)*s.invSrv, float64(s.inSystem))
}

// Reset empties the station — queue, in-service count, and all statistics —
// so it can be reused for a fresh replication after Engine.Reset. The engine
// binding and compiled service sampler are kept. Any in-flight serviceDone
// events must already have been discarded (Engine.Reset does that).
func (s *Station) Reset() {
	s.queue.head, s.queue.n = 0, 0
	clearJobs(s.queue.buf)
	s.inUse = 0
	s.inSystem = 0
	s.stat = track{lastT: s.engine.Now()}
	s.Residence = stats.Mean{}
	s.Served = 0
}

// clearJobs zeroes a job buffer so stale references don't pin dead jobs.
func clearJobs(buf []queuedJob) {
	for i := range buf {
		buf[i] = queuedJob{}
	}
}

// Arrive enqueues a job at the current simulation time. When a server is
// free and nothing is waiting, the job starts service immediately without a
// round-trip through the queue buffer.
func (s *Station) Arrive(job Job) {
	now := s.engine.Now()
	s.inSystem++
	if s.inUse < s.nsrv && s.queue.n == 0 {
		s.startJob(job, now, now)
		s.note(now)
		return
	}
	s.queue.push(queuedJob{job: job, arrived: now})
	if s.inUse < s.nsrv {
		s.startNext(now)
	}
	s.note(now)
}

// pickNext removes and returns the next job to serve: the head of the queue,
// or the highest-priority job when a Priority function is set.
func (s *Station) pickNext() queuedJob {
	if s.Priority == nil {
		return s.queue.removeAt(0)
	}
	best := 0
	bestPrio := s.Priority(s.queue.at(0).job)
	for i := 1; i < s.queue.n; i++ {
		if p := s.Priority(s.queue.at(i).job); p > bestPrio {
			best, bestPrio = i, p
		}
	}
	return s.queue.removeAt(best)
}

func (s *Station) startNext(now float64) {
	if s.queue.n == 0 || s.inUse >= s.nsrv {
		return
	}
	head := s.pickNext()
	s.startJob(head.job, head.arrived, now)
}

// startJob seizes a server for job (which arrived at `arrived`) and schedules
// its completion. The caller notes the occupancy change afterwards.
func (s *Station) startJob(job Job, arrived, now float64) {
	s.inUse++
	delay := s.svc.Sample(&s.engine.Rand)
	s.engine.AfterEvent(delay, serviceDone, Event{Actor: s, Data: job, T: arrived})
}

// serviceDone is the dispatch target for service completions: Actor is the
// station, Data the job, T its arrival time. A package-level handler keeps
// the per-service schedule allocation-free.
func serviceDone(e *Engine, ev Event) {
	s := ev.Actor.(*Station)
	now := e.Now()
	s.inUse--
	s.inSystem--
	s.Residence.Add(now - ev.T)
	s.Served++
	// Hand the job off before starting the next service so downstream
	// arrivals at this instant queue behind the new service start in a
	// deterministic order.
	if s.Done != nil {
		s.Done(ev.Data, ev.T, now)
	}
	s.startNext(now)
	// note re-reads the counters, so a Done callback that re-entered this
	// station is already reflected (same-instant updates collapse anyway).
	s.note(now)
}

// ResetStats discards accumulated statistics (for warm-up) without touching
// the queue state.
func (s *Station) ResetStats() {
	s.stat.resetStats(s.engine.Now())
	s.Residence = stats.Mean{}
	s.Served = 0
}

// Utilization returns the measured busy fraction (servers in use / servers)
// up to the current time.
func (s *Station) Utilization() float64 {
	busy, _ := s.stat.meansAt(s.engine.Now())
	return busy
}

// MeanQueueLen returns the time-average number in system.
func (s *Station) MeanQueueLen() float64 {
	_, inSys := s.stat.meansAt(s.engine.Now())
	return inSys
}
