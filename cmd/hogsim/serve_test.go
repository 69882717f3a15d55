package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/sim"
	"hog/internal/snapshot"
	"hog/internal/workload"
)

// testServer warms a small pool 10 minutes into a reduced workload.
func testServer(t *testing.T) *server {
	t.Helper()
	cfg := core.HOGConfig(60, grid.ChurnStable, 7)
	sched := workload.Generate(7, workload.Config{Scale: 0.05})
	srv, err := newServer(cfg, sched, 10*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestServeStateAndSnapshot(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/state")
	if err != nil {
		t.Fatal(err)
	}
	var state stateReply
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if state.Phase != "started" {
		t.Fatalf("phase = %q, want started", state.Phase)
	}
	if state.NowS < 600 {
		t.Fatalf("now = %.0f s, want >= warm-up 600 s", state.NowS)
	}
	if state.Census.Grid == nil || state.Census.Grid.Alive == 0 {
		t.Fatalf("census reports no live nodes: %+v", state.Census.Grid)
	}

	// The downloaded snapshot must restore into the same census.
	resp, err = http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /snapshot = %d: %s", resp.StatusCode, data)
	}
	restored, err := snapshot.Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Eng.Now().Seconds(); got != state.NowS {
		t.Fatalf("restored clock %.6f s, served clock %.6f s", got, state.NowS)
	}
}

func TestServeForkDeterministicBranches(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	outage := core.ScenarioSpec{
		Name: "outage",
		Steps: []core.StepSpec{
			{Verb: "site-outage", At: 30 * sim.Second, Site: "UCSDT2", Frac: 0.9},
		},
	}
	body, _ := json.Marshal(forkRequest{Branches: []forkBranch{
		{Name: "baseline"},
		{Name: "outage", Divergence: &outage},
	}})

	fork := func() []forkReply {
		resp, err := http.Post(ts.URL+"/fork", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /fork = %d: %s", resp.StatusCode, msg)
		}
		var reply struct {
			Branches []forkReply `json:"branches"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		return reply.Branches
	}

	first, second := fork(), fork()
	if len(first) != 2 {
		t.Fatalf("got %d branches, want 2", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("branch %q not deterministic across forks:\n%+v\n%+v",
				first[i].Name, first[i], second[i])
		}
	}
	if first[0].Fingerprint == first[1].Fingerprint {
		t.Fatalf("baseline and outage branches have identical event fingerprints %#x", first[0].Fingerprint)
	}

	// Forking must not disturb the served system.
	resp, err := http.Get(ts.URL + "/state")
	if err != nil {
		t.Fatal(err)
	}
	var state stateReply
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if state.Phase != "started" {
		t.Fatalf("after forks the served system is %q, want started", state.Phase)
	}
}

func TestServeForkRejectsBadScenario(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	bad := core.ScenarioSpec{Name: "bad", Steps: []core.StepSpec{{Verb: "no-such-verb"}}}
	body, _ := json.Marshal(forkRequest{Branches: []forkBranch{{Name: "bad", Divergence: &bad}}})
	resp, err := http.Post(ts.URL+"/fork", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /fork with unknown verb = %d (%s), want 400", resp.StatusCode, msg)
	}
}

func TestServeEventsReplay(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	// The warm-up ring replays immediately; read a few frames and check the
	// SSE shape without waiting for live traffic.
	sc := bufio.NewScanner(resp.Body)
	var events, data int
	for sc.Scan() && data < 5 {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events++
		case strings.HasPrefix(line, "data: "):
			data++
			var e sseEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &e); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			if e.Type == "" {
				t.Fatalf("SSE event with empty type: %q", line)
			}
		}
	}
	if events < 5 || data < 5 {
		t.Fatalf("replayed %d event lines / %d data lines, want >= 5 of each", events, data)
	}
}

// subscribeEvents opens an /events stream and reads until the replay ring
// has started flowing, proving the handler is registered and live.
func subscribeEvents(t *testing.T, ctx context.Context, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", url+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading first byte of /events: %v", err)
	}
	return resp
}

// waitSubscribers polls the subscriber count until it reaches want.
func waitSubscribers(t *testing.T, srv *server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.subscribers() != want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.subscribers(); got != want {
		t.Fatalf("subscribers = %d, want %d", got, want)
	}
}

func TestServeEventsClientReaped(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	resp := subscribeEvents(t, ctx, ts.URL)
	defer resp.Body.Close()
	waitSubscribers(t, srv, 1)

	// Drop the client. The handler must notice the dead connection and
	// deregister the subscriber instead of fanning out to it forever.
	cancel()
	waitSubscribers(t, srv, 0)
}

func TestServeShutdownDrainsSubscribers(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := subscribeEvents(t, ctx, ts.URL)
	defer resp.Body.Close()
	waitSubscribers(t, srv, 1)

	// Graceful shutdown releases the stream from the server side: the
	// handler returns (the subscriber table empties) and the client sees
	// its stream end rather than hang.
	srv.close()
	waitSubscribers(t, srv, 0)
	if _, err := io.Copy(io.Discard, resp.Body); err != nil && err != io.EOF {
		t.Fatalf("drained stream ended with %v, want clean EOF", err)
	}
}

// TestServeAdvanceValidation drives /advance with well-formed, malformed,
// out-of-range and oversized bodies: only in-range advances move the clock,
// everything else is refused before the simulation is touched.
func TestServeAdvanceValidation(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	start := srv.sys.Eng.Now().Seconds()
	huge := `{"by_s": 0, "pad": "` + strings.Repeat("x", maxBody) + `"}`
	cases := []struct {
		name, body string
		status     int
		moves      bool
	}{
		{"by", `{"by_s": 30}`, http.StatusOK, true},
		{"to", `{"to_s": ` + strconv.FormatFloat(start+90, 'f', -1, 64) + `}`, http.StatusOK, true},
		{"to past", `{"to_s": 1}`, http.StatusOK, false},
		{"negative to", `{"to_s": -5}`, http.StatusBadRequest, false},
		{"negative by", `{"by_s": -1}`, http.StatusBadRequest, false},
		{"huge by", `{"by_s": 1e300}`, http.StatusBadRequest, false},
		{"huge to", `{"to_s": 1e18}`, http.StatusBadRequest, false},
		{"beyond run bound", `{"by_s": 172800}`, http.StatusBadRequest, false},
		{"NaN", `{"to_s": NaN}`, http.StatusBadRequest, false},
		{"Inf", `{"by_s": Infinity}`, http.StatusBadRequest, false},
		{"overflowing literal", `{"by_s": 1e400}`, http.StatusBadRequest, false},
		{"malformed", `{"by_s":`, http.StatusBadRequest, false},
		{"oversized", huge, http.StatusRequestEntityTooLarge, false},
	}
	for _, c := range cases {
		before := srv.sys.Eng.Now()
		resp, err := http.Post(ts.URL+"/advance", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.status, body)
		}
		if moved := srv.sys.Eng.Now() != before; moved != c.moves {
			t.Errorf("%s: clock moved %v, want %v", c.name, moved, c.moves)
		}
	}
}

// advanceCases are request-resolution rows against now = 100 s and a run
// bound of 1000 s, including the values JSON cannot carry.
var advanceCases = []struct {
	req  advanceRequest
	want sim.Time
	ok   bool
}{
	{advanceRequest{ByS: 10}, 110 * sim.Second, true},
	{advanceRequest{ToS: 500}, 500 * sim.Second, true},
	{advanceRequest{ToS: 1000}, 1000 * sim.Second, true},
	{advanceRequest{ByS: 900}, 1000 * sim.Second, true},
	{advanceRequest{ByS: 901}, 0, false},
	{advanceRequest{ToS: 1001}, 0, false},
	{advanceRequest{ToS: math.NaN()}, 0, false},
	{advanceRequest{ByS: math.Inf(1)}, 0, false},
	{advanceRequest{ToS: math.Inf(-1)}, 0, false},
	{advanceRequest{ByS: -0.5}, 0, false},
}

const advanceNow, advanceEnd = 100 * sim.Second, 1000 * sim.Second

// TestAdvanceTarget checks the request-to-instant resolution directly.
func TestAdvanceTarget(t *testing.T) {
	for _, c := range advanceCases {
		got, err := c.req.target(advanceNow, advanceEnd)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("%+v: got %v, %v; want %v, ok=%v", c.req, got, err, c.want, c.ok)
		}
	}
}

// FuzzAdvanceTarget feeds arbitrary /advance bodies through the handler's
// JSON decode and the target resolution: neither may panic, and a resolved
// target never lies beyond the run bound. The seeds are the advanceCases
// rows written as bodies; the NaN and infinite ones are not JSON, so they
// exercise the decode errors.
func FuzzAdvanceTarget(f *testing.F) {
	for _, c := range advanceCases {
		f.Add([]byte(fmt.Sprintf(`{"to_s": %v, "by_s": %v}`, c.req.ToS, c.req.ByS)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req advanceRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		got, err := req.target(advanceNow, advanceEnd)
		if err == nil && got > advanceEnd {
			t.Fatalf("%+v resolved to %v, beyond the run bound %v", req, got, advanceEnd)
		}
	})
}

// forkSeeds are /fork bodies: a baseline with a divergence branch, and the
// two divergences whose offset or poll once overflowed the engine clock and
// panicked it with "sim: Schedule in the past".
var forkSeeds = []string{
	`{"branches":[{"name":"base"},{"name":"outage","divergence":{"name":"o","steps":[{"verb":"site-outage","at":30000000,"site":"UCSDT2","frac":0.5},{"verb":"crash-namenode","at":60000000},{"verb":"restart-masters","at":90000000}]}}]}`,
	`{"branches":[{"name":"far","divergence":{"name":"far","steps":[{"verb":"crash-namenode","at":9223372036854775807}]}}]}`,
	`{"branches":[{"name":"poll","divergence":{"name":"poll","poll":9223372036854775807,"steps":[{"verb":"retarget-alive-below","below":5,"target":12}]}}]}`,
}

// maxFuzzBranches caps the branches one fuzz input runs: every branch is a
// full restore, and the target looks for a hostile divergence, not a long
// branch list.
const maxFuzzBranches = 4

// FuzzForkBody feeds hostile /fork bodies through the path handleFork takes:
// decode a forkRequest, then for each branch restore a warm snapshot of a
// small HOG system, rebuild and apply its divergence, and run the branch
// five simulated minutes. A stage may reject its input with an error but
// must never panic.
func FuzzForkBody(f *testing.F) {
	for _, s := range forkSeeds {
		f.Add([]byte(s))
	}
	sys, err := core.NewSystem(core.HOGConfig(12, grid.ChurnStable, 1))
	if err != nil {
		f.Fatal(err)
	}
	// Jobs keep arriving for ten minutes, so a branch is still running when
	// its divergence steps fire.
	jobs := &workload.Schedule{Jobs: []workload.JobSpec{
		{Name: "a", Maps: 2, Reduces: 1, InputBytes: 128e6},
		{Name: "b", Submit: 5 * sim.Minute, Maps: 2, Reduces: 1, InputBytes: 128e6},
		{Name: "c", Submit: 10 * sim.Minute, Maps: 2, Reduces: 1, InputBytes: 128e6},
	}}
	if err := sys.StartWorkload(jobs); err != nil {
		f.Fatal(err)
	}
	if err := sys.RunTo(sys.RunStart() + 2*sim.Minute); err != nil {
		f.Fatal(err)
	}
	data, err := snapshot.Save(sys)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req forkRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		for i, b := range req.Branches {
			if i == maxFuzzBranches {
				break
			}
			branch, err := snapshot.Restore(data)
			if err != nil {
				t.Fatal(err)
			}
			if b.Divergence != nil {
				sc, err := core.ScenarioFromSpec(*b.Divergence)
				if err != nil {
					continue
				}
				if err := branch.ApplyDivergence(sc); err != nil {
					continue
				}
			}
			if err := branch.RunTo(branch.Eng.Now() + 5*sim.Minute); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestServeForkBodyLimits refuses oversized and malformed /fork bodies.
func TestServeForkBodyLimits(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	cases := []struct {
		name, body string
		status     int
	}{
		{"oversized", `{"branches": [{"name": "` + strings.Repeat("b", maxBody) + `"}]}`, http.StatusRequestEntityTooLarge},
		{"malformed", `{"branches": [`, http.StatusBadRequest},
		{"no branches", `{"branches": []}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/fork", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.status, body)
		}
	}
}

// TestServeForkHonoursCancellation: a /fork whose request is already
// cancelled (the client left, or the server's timeout replied) must stop
// before running its branches to completion, answer 503, and leave the lock
// free for the next request.
func TestServeForkHonoursCancellation(t *testing.T) {
	srv := testServer(t)
	body := `{"branches": [{"name": "a"}, {"name": "b"}]}`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/fork", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.handleFork(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled /fork = %d (%s), want 503", rec.Code, rec.Body)
	}

	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/state")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /state after a cancelled fork = %d", resp.StatusCode)
	}
}
