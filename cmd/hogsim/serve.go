// hogsim serve: hold one warm simulation in memory behind a small HTTP API.
//
// The service is the operational face of the snapshot subsystem
// (docs/SNAPSHOT.md): a cluster day is warmed up once, then clients can
// inspect it (GET /state), download a deterministic snapshot of it
// (GET /snapshot), advance it (POST /advance), fork what-if branches off it
// without disturbing it (POST /fork), and stream the typed event bus
// (GET /events, server-sent events).
//
// All simulation access is serialised by one mutex: the simulator is
// single-threaded by design, and the service exists for determinism, not
// throughput.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"hog/internal/core"
	"hog/internal/event"
	"hog/internal/metrics"
	"hog/internal/sim"
	"hog/internal/snapshot"
	"hog/internal/workload"
)

func serveMain(args []string) int {
	fs := flag.NewFlagSet("hogsim serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "localhost:8080", "listen address")
		nodes     = fs.Int("nodes", 100, "HOG pool target size")
		churnName = fs.String("churn", "stable", "grid churn: none|stable|unstable")
		seed      = fs.Int64("seed", 1, "simulation and workload seed")
		scale     = fs.Float64("scale", 1.0, "workload scale (1.0 = 88 jobs)")
		warm      = fs.Float64("warm", 0, "advance this many seconds into the workload before serving")
	)
	fs.Parse(args)

	churn, ok := churnProfiles[*churnName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown churn %q\n", *churnName)
		return 2
	}
	srv, err := newServer(core.HOGConfig(*nodes, churn, *seed),
		workload.Generate(*seed, workload.Config{Scale: *scale}), sim.Seconds(*warm))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "hogsim serve: %d-node pool warm at t=%.0f s, listening on http://%s\n",
		*nodes, srv.sys.Eng.Now().Seconds(), *addr)
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.routes(),
		// Header and idle deadlines bound connection-level stalls; the
		// endpoint bodies get their own per-request deadline in routes().
		// No WriteTimeout: /events streams for the client's lifetime.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		return 1
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "hogsim serve: caught %v, draining\n", sig)
	}
	// Release the /events streams first — Shutdown waits for in-flight
	// handlers, and an SSE handler only returns once told to.
	srv.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// ringCap bounds the in-memory event history replayed to new /events
// subscribers. At 100-node scale a full day is a few hundred thousand
// events; the ring keeps the most recent slice.
const ringCap = 4096

// server is one warm simulation plus its event fan-out.
type server struct {
	mu  sync.Mutex // serialises all simulation access
	sys *core.System

	evmu    sync.Mutex // guards ring and subs
	ring    []event.Event
	subs    map[int]chan event.Event
	nextSub int

	done      chan struct{} // closed on shutdown; releases /events handlers
	closeOnce sync.Once
}

// newServer builds the system, subscribes the server to its event bus,
// starts the workload, and warms it up to runStart+warm.
func newServer(cfg core.Config, sched *workload.Schedule, warm sim.Time) (*server, error) {
	s := &server{subs: make(map[int]chan event.Event), done: make(chan struct{})}
	sys, err := core.NewSystem(cfg, s)
	if err != nil {
		return nil, err
	}
	s.sys = sys
	if err := sys.StartWorkload(sched); err != nil {
		return nil, err
	}
	if warm > 0 {
		if err := sys.RunTo(sys.RunStart() + warm); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// HandleEvent implements event.Observer: every simulation event lands in the
// replay ring and fans out to live /events subscribers. Slow subscribers drop
// events rather than stall the simulation.
func (s *server) HandleEvent(e event.Event) {
	s.evmu.Lock()
	defer s.evmu.Unlock()
	if len(s.ring) == ringCap {
		copy(s.ring, s.ring[1:])
		s.ring = s.ring[:ringCap-1]
	}
	s.ring = append(s.ring, e)
	for _, ch := range s.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// close releases every live /events subscriber and makes the server refuse
// further streaming; it is idempotent and safe from any goroutine.
func (s *server) close() {
	s.closeOnce.Do(func() { close(s.done) })
}

// subscribers reports the live /events subscriber count (tests use it to
// check that disconnected clients are reaped).
func (s *server) subscribers() int {
	s.evmu.Lock()
	defer s.evmu.Unlock()
	return len(s.subs)
}

// requestTimeout bounds each non-streaming request body. Fork branches run
// whole simulations under the lock, so the bound is generous; only a wedged
// request should ever hit it.
const requestTimeout = 30 * time.Second

func (s *server) routes() http.Handler {
	// Method dispatch is by hand: the module's language floor predates the
	// Go 1.22 ServeMux method patterns. Every endpoint except the SSE
	// stream gets a per-request deadline; /events is exempt because it
	// legitimately runs forever (and TimeoutHandler cannot stream anyway).
	bounded := func(h http.HandlerFunc) http.Handler {
		return http.TimeoutHandler(h, requestTimeout, "request timed out\n")
	}
	mux := http.NewServeMux()
	mux.Handle("/state", bounded(method("GET", s.handleState)))
	mux.Handle("/snapshot", bounded(method("GET", s.handleSnapshot)))
	mux.Handle("/advance", bounded(method("POST", s.handleAdvance)))
	mux.Handle("/fork", bounded(method("POST", s.handleFork)))
	mux.HandleFunc("/events", method("GET", s.handleEvents))
	return mux
}

// method rejects requests whose method doesn't match.
func method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s requires %s", r.URL.Path, want))
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// stateReply is the GET /state document: run phase and clock plus the full
// layer-by-layer census the snapshot subsystem verifies restores against.
type stateReply struct {
	Phase  string          `json:"phase"`
	NowS   float64         `json:"now_s"`
	Jobs   int             `json:"jobs_submitted"`
	Census snapshot.Census `json:"census"`
}

func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	reply := stateReply{
		Phase:  s.sys.Phase().String(),
		NowS:   s.sys.Eng.Now().Seconds(),
		Census: snapshot.TakeCensus(s.sys),
	}
	if sched := s.sys.RunSchedule(); sched != nil {
		reply.Jobs = len(sched.Jobs)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}

// handleSnapshot serves the versioned snapshot container as a download;
// restore it with `hogsim restore -in FILE` or snapshot.Restore.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	data, err := snapshot.Save(s.sys)
	s.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="hogsim.snap"`)
	w.Write(data)
}

// maxBody caps the JSON bodies /advance and /fork accept.
const maxBody = 1 << 20

// decodeBody decodes a size-capped JSON request body into v, writing the
// error reply (413 for an oversized body, 400 otherwise) when it fails.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBody))
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
	}
	return false
}

// advanceRequest moves the warm simulation's clock forward.
type advanceRequest struct {
	ToS float64 `json:"to_s"` // absolute simulated target instant
	ByS float64 `json:"by_s"` // or: seconds beyond the current instant
}

// advanceStep is the simulated slice /advance runs between checks of the
// request deadline, so a timed-out request releases the simulation soon
// after its reply has gone. Slicing a run with RunTo does not change it.
const advanceStep = 60 * sim.Second

// target resolves the request against the current instant: both fields must
// be finite and non-negative, and the target must not lie beyond the run's
// bound (where the run stops anyway).
func (req advanceRequest) target(now, end sim.Time) (sim.Time, error) {
	for _, v := range []float64{req.ToS, req.ByS} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return 0, fmt.Errorf("to_s and by_s must be finite and non-negative, got to_s=%g by_s=%g", req.ToS, req.ByS)
		}
	}
	limit := end.Seconds()
	if req.ToS > limit || req.ByS > limit-now.Seconds() {
		return 0, fmt.Errorf("target beyond the run bound at %.0f s", limit)
	}
	if req.ByS > 0 {
		return now + sim.Seconds(req.ByS), nil
	}
	return sim.Seconds(req.ToS), nil
}

// runSliced advances sys to target in advanceStep slices, stopping early
// once ctx is done; the caller checks ctx.Err() for that case.
func runSliced(ctx context.Context, sys *core.System, target sim.Time) error {
	for t := sys.Eng.Now(); t < target && ctx.Err() == nil; {
		t = min(t+advanceStep, target)
		if err := sys.RunTo(t); err != nil {
			return err
		}
	}
	return nil
}

func (s *server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req advanceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	target, err := req.target(s.sys.Eng.Now(), s.sys.RunStart()+s.sys.Config().RunBound)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := runSliced(r.Context(), s.sys, target); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	if err := r.Context().Err(); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, stateReply{Phase: s.sys.Phase().String(), NowS: s.sys.Eng.Now().Seconds()})
}

// forkRequest names the what-if branches to run. A branch with no divergence
// is a baseline; a divergence is a scenario spec (docs/SNAPSHOT.md) anchored
// at the fork instant.
type forkRequest struct {
	Branches []forkBranch `json:"branches"`
}

type forkBranch struct {
	Name       string             `json:"name"`
	Divergence *core.ScenarioSpec `json:"divergence,omitempty"`
}

// forkReply summarises one completed branch.
type forkReply struct {
	Name        string  `json:"name"`
	ForkedAtS   float64 `json:"forked_at_s"`
	ResponseS   float64 `json:"response_s"`
	P50S        float64 `json:"p50_s"`
	P95S        float64 `json:"p95_s"`
	P99S        float64 `json:"p99_s"`
	Jobs        int     `json:"jobs"`
	JobsFailed  int     `json:"jobs_failed"`
	Fingerprint uint64  `json:"event_fingerprint"`
}

// handleFork snapshots the warm simulation and runs each requested branch to
// completion on its own restored copy — the served system is never disturbed.
// Branches run serially under the lock: the reply is deterministic, and the
// endpoint's job is reproducibility, not latency. Like /advance, each branch
// runs in advanceStep slices, and a cancelled request (the client left, or
// the server's timeout replied) stops the fork and releases the lock.
func (s *server) handleFork(w http.ResponseWriter, r *http.Request) {
	var req forkRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Branches) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fork needs at least one branch"))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := snapshot.Save(s.sys)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	forkedAt := s.sys.Eng.Now().Seconds()
	replies := make([]forkReply, 0, len(req.Branches))
	for _, b := range req.Branches {
		log := event.NewLog()
		sys, err := snapshot.Restore(data, log)
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("branch %q: %w", b.Name, err))
			return
		}
		if b.Divergence != nil {
			sc, err := core.ScenarioFromSpec(*b.Divergence)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("branch %q: %w", b.Name, err))
				return
			}
			if err := sys.ApplyDivergence(sc); err != nil {
				writeError(w, http.StatusConflict, fmt.Errorf("branch %q: %w", b.Name, err))
				return
			}
		}
		if err := runSliced(r.Context(), sys, sys.RunStart()+sys.Config().RunBound); err != nil {
			writeError(w, http.StatusConflict, fmt.Errorf("branch %q: %w", b.Name, err))
			return
		}
		if err := r.Context().Err(); err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		res := sys.FinishWorkload()
		sum := metrics.Summarize(res.JobResponses)
		replies = append(replies, forkReply{
			Name:        b.Name,
			ForkedAtS:   forkedAt,
			ResponseS:   res.ResponseTime.Seconds(),
			P50S:        sum.P50.Seconds(),
			P95S:        sum.P95.Seconds(),
			P99S:        sum.P99.Seconds(),
			Jobs:        len(res.JobResponses),
			JobsFailed:  res.JobsFailed,
			Fingerprint: log.Fingerprint(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"branches": replies})
}

// sseEvent is the JSON shape of one event on the /events stream.
type sseEvent struct {
	TimeS    float64 `json:"time_s"`
	Type     string  `json:"type"`
	Node     int     `json:"node"`
	Site     string  `json:"site,omitempty"`
	Job      int     `json:"job"`
	Task     int     `json:"task"`
	Kind     string  `json:"kind,omitempty"`
	Locality int     `json:"locality"`
	Block    int64   `json:"block"`
	Value    int     `json:"value"`
	Detail   string  `json:"detail,omitempty"`
}

func toSSE(e event.Event) sseEvent {
	out := sseEvent{
		TimeS:    e.Time.Seconds(),
		Type:     e.Type.String(),
		Node:     int(e.Node),
		Site:     e.Site,
		Job:      e.Job,
		Task:     e.Task,
		Locality: int(e.Locality),
		Block:    e.Block,
		Value:    e.Value,
		Detail:   e.Detail,
	}
	if e.Type == event.TaskLaunched || e.Type == event.TaskFinished {
		out.Kind = e.Kind.String()
	}
	return out
}

// handleEvents streams the typed event bus as server-sent events: the replay
// ring first (so a fresh subscriber sees the warm-up history), then live
// events as /advance and /fork drive the clock.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	s.evmu.Lock()
	replay := make([]event.Event, len(s.ring))
	copy(replay, s.ring)
	ch := make(chan event.Event, 1024)
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.evmu.Unlock()
	defer func() {
		s.evmu.Lock()
		delete(s.subs, id)
		s.evmu.Unlock()
	}()

	emit := func(e event.Event) bool {
		data, err := json.Marshal(toSSE(e))
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
		return err == nil
	}
	for _, e := range replay {
		if !emit(e) {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case e := <-ch:
			if !emit(e) {
				return
			}
			flusher.Flush()
		}
	}
}
