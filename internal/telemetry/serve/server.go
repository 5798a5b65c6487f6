package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry/sampler"
)

// Server is the embedded HTTP front of a Collector: it binds a listener,
// serves the endpoints, and never touches simulator state (handlers read
// only published snapshots, or hand off to the flight recorder's own
// cycle-boundary machinery).
type Server struct {
	col *Collector
	ln  net.Listener
	srv *http.Server

	mu     sync.Mutex
	closed bool
	dumper DumpTrigger
}

// DumpTrigger is what /debug/flightrec drives: an attached flight
// recorder that can freeze its window into a dump file on demand. The
// interface lives here so the recorder package can depend on serve-free
// layers while the server stays recorder-agnostic.
type DumpTrigger interface {
	// TriggerDump writes a dump for the given reason and returns its path.
	TriggerDump(reason string) (string, error)
}

// SetDumper attaches (or, with nil, detaches) the flight recorder behind
// /debug/flightrec.
func (s *Server) SetDumper(d DumpTrigger) {
	s.mu.Lock()
	s.dumper = d
	s.mu.Unlock()
}

// sseHeartbeat is the /events keep-alive comment interval; a variable so
// the stalled-reader test can shrink it.
var sseHeartbeat = 15 * time.Second

// Start subscribes a collector to the sampler and serves it on addr
// (":8080", "127.0.0.1:0", ...). The listener is bound before Start
// returns, so Addr() reports the resolved ephemeral port immediately.
func Start(smp *sampler.Sampler, cfg Config, addr string) (*Server, error) {
	return StartWith(AttachCollector(smp, cfg), addr)
}

// StartWith serves an existing collector (for tests that need the
// collector before the listener).
func StartWith(col *Collector, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{col: col, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/flightrec", s.handleFlightrec)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Collector exposes the server's collector.
func (s *Server) Collector() *Collector { return s.col }

// Addr reports the bound listen address (with the resolved port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the HTTP server down. The collector stays subscribed to
// the sampler (it publishes to nobody); the simulation is unaffected.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "noc live observability service")
	fmt.Fprintln(w, "  /metrics   Prometheus text exposition")
	fmt.Fprintln(w, "  /snapshot  full JSON snapshot (heatmap, per-component counters)")
	fmt.Fprintln(w, "  /healthz   online detector verdicts (200 healthy / 503 tripped)")
	fmt.Fprintln(w, "  /events    SSE stream of health transitions and sampled rows")
	fmt.Fprintln(w, "  /debug/flightrec  POST/GET: dump the flight recorder's window now")
}

// snapshotOr503 fetches the latest snapshot or fails the request; before
// the first sample (cycle 0 publishes one, so this is a startup race of
// microseconds) there is nothing consistent to serve.
func (s *Server) snapshotOr503(w http.ResponseWriter) *Snapshot {
	snap := s.col.Latest()
	if snap == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteProm(w, snap) //nolint:errcheck // client went away
	// Process self-monitoring rows render at request time, never into the
	// snapshot: snapshots must stay deterministic (the shard-determinism
	// suite compares their byte streams), and goroutine counts or heap
	// sizes are anything but.
	WriteRuntimeProm(w) //nolint:errcheck // client went away
	// The shared artifact cache is process state too — scrape-time only.
	WriteArtifactProm(w) //nolint:errcheck // client went away
}

// handleFlightrec asks the attached flight recorder (SetDumper) to dump
// its window. Without a recorder the endpoint 404s, so it is always safe
// to register.
func (s *Server) handleFlightrec(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	d := s.dumper
	s.mu.Unlock()
	if d == nil {
		http.Error(w, "no flight recorder attached (run with -flightrec)", http.StatusNotFound)
		return
	}
	reason := r.URL.Query().Get("reason")
	if reason == "" {
		reason = "http"
	}
	path, err := d.TriggerDump(reason)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct { //nolint:errcheck // client went away
		Path string `json:"path"`
	}{Path: path})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(snap) //nolint:errcheck // client went away
}

// healthzBody is the /healthz response shape.
type healthzBody struct {
	Status         string          `json:"status"` // "ok" or "unhealthy"
	Cycle          int64           `json:"cycle"`
	Verdicts       []healthVerdict `json:"verdicts"`
	OverUnityLinks int             `json:"over_unity_links"`
	DeadLinks      int             `json:"dead_links"`

	// Checkpoint staleness (mirrors the Snapshot fields): -1 when no
	// durable snapshot has been taken.
	LastCheckpointCycle int64 `json:"last_checkpoint_cycle"`
	CheckpointAge       int64 `json:"checkpoint_age_cycles"`
}

type healthVerdict struct {
	Detector string `json:"detector"`
	Healthy  bool   `json:"healthy"`
	Since    int64  `json:"since,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	body := healthzBody{
		Status:              "ok",
		Cycle:               snap.Cycle,
		OverUnityLinks:      snap.OverUnityLinks,
		DeadLinks:           snap.DeadLinks,
		LastCheckpointCycle: snap.LastCheckpointCycle,
		CheckpointAge:       snap.CheckpointAge,
	}
	for _, v := range snap.Health {
		body.Verdicts = append(body.Verdicts, healthVerdict(v))
	}
	code := http.StatusOK
	if !snap.Healthy {
		body.Status = "unhealthy"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(body) //nolint:errcheck // client went away
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": stream open\n\n")
	fl.Flush()
	sub := s.col.Subscribe()
	defer s.col.Unsubscribe(sub)
	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	var reported int64
	for {
		select {
		case <-r.Context().Done():
			return
		case <-hb.C:
			// Keep-alive comment so idle streams (long Every, quiescent
			// network) survive proxies and clients detect half-open TCP.
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		case frame, ok := <-sub.C():
			if !ok {
				return
			}
			if d := sub.Dropped(); d > reported {
				// The client stalled and missed frames; tell it how many
				// so it knows its view has gaps.
				if _, err := fmt.Fprintf(w, ": %d frame(s) dropped while stalled\n\n", d-reported); err != nil {
					return
				}
				reported = d
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
