// Package serve exposes the obs telemetry substrate over HTTP while a run
// is in flight (`hetarch -listen ADDR`). Endpoints:
//
//	/metrics        Prometheus text exposition of the metric registry
//	                (counters, gauges, histograms with cumulative buckets)
//	/progress       current heartbeat state as JSON; with ?sse=1 or an
//	                Accept: text/event-stream header, a Server-Sent-Events
//	                stream of heartbeat ticks
//	/trace          the flight profiler's events so far as Chrome Trace
//	                Event JSON — save and open in Perfetto/chrome://tracing
//	/runs           the run ledger's envelopes as JSON (args, status,
//	                headline metrics, artifact manifest per past run)
//	/debug/pprof/*  the standard net/http/pprof handlers
//	/               plain-text index of the above
//
// Everything is stdlib-only and read-only: handlers snapshot shared state
// under the obs package's own synchronization, so serving during a run
// perturbs it no more than the -metrics flag does.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"hetarch/internal/obs"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/trace"
)

// Options selects the telemetry sources. Nil fields disable the
// corresponding endpoints (they respond 503; /trace and /runs respond 404
// — "this resource does not exist here" — so scripts piping them to a file
// fail loudly instead of saving an empty body).
type Options struct {
	Registry  *obs.Registry
	Heartbeat *obs.Heartbeat

	// Trace is the flight profiler's event collector behind /trace. The
	// endpoint snapshots whatever has been recorded so far, so a download
	// mid-run is valid (if partial) Chrome Trace JSON.
	Trace *trace.Collector

	// LedgerPath is the run-ledger file behind /runs ("" disables the
	// endpoint).
	LedgerPath string
}

// jsonError writes a machine-parseable error body, so scripts curling an
// endpoint get {"error": ...} rather than a bare text line.
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// Handler builds the telemetry mux for the given sources.
func Handler(opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "hetarch telemetry")
		fmt.Fprintln(w, "  /metrics         prometheus text exposition")
		fmt.Fprintln(w, "  /progress        heartbeat JSON (?sse=1 for an SSE stream)")
		fmt.Fprintln(w, "  /trace           flight-profiler Chrome Trace JSON (open in Perfetto)")
		fmt.Fprintln(w, "  /runs            run-ledger envelopes JSON (past runs + artifact manifests)")
		fmt.Fprintln(w, "  /debug/pprof/    go profiling endpoints")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if opts.Registry == nil {
			http.Error(w, "no metric registry", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		opts.Registry.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		hb := opts.Heartbeat
		if hb == nil {
			http.Error(w, "no heartbeat (run with -progress or -listen)", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Query().Get("sse") != "" || r.Header.Get("Accept") == "text/event-stream" {
			serveSSE(w, r, hb)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(hb.Last())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		// 404, not 200-with-empty-body: a script saving the download must
		// fail loudly when no tracer is armed, and the JSON body tells it
		// why.
		if opts.Trace == nil || !opts.Trace.Enabled() && opts.Trace.Len() == 0 {
			jsonError(w, http.StatusNotFound, "no trace armed (run with -trace-out or -listen)")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="hetarch-trace.json"`)
		opts.Trace.WriteChromeTrace(w)
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		if opts.LedgerPath == "" {
			jsonError(w, http.StatusNotFound, "no run ledger (run with -ledger-dir)")
			return
		}
		lg, err := ledger.ReadFile(opts.LedgerPath)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				lg = &ledger.Log{} // configured but nothing recorded yet
			} else {
				jsonError(w, http.StatusInternalServerError, err.Error())
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Runs      []ledger.Envelope `json:"runs"`
			Truncated bool              `json:"truncated,omitempty"`
			Skipped   int               `json:"skipped,omitempty"`
		}{Runs: lg.Envelopes, Truncated: lg.Truncated, Skipped: lg.Skipped})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveSSE streams heartbeat updates as Server-Sent Events until the
// heartbeat stops or the client disconnects. The first event is the current
// state, so a late subscriber is never blind until the next tick.
func serveSSE(w http.ResponseWriter, r *http.Request, hb *obs.Heartbeat) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	send := func(u obs.ProgressUpdate) bool {
		b, err := json.Marshal(u)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !send(hb.Last()) {
		return
	}
	ch, cancel := hb.Subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case u, ok := <-ch:
			if !ok {
				return // heartbeat stopped: run is over
			}
			if !send(u) {
				return
			}
		}
	}
}

// Server is a running telemetry server.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	stop context.CancelFunc // cancels the base context of every request
}

// Start listens on addr (e.g. ":8080", "127.0.0.1:0") and serves the
// telemetry mux in a background goroutine. The listen error is returned
// synchronously so a bad -listen flag fails the CLI immediately.
func Start(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry listen %s: %w", addr, err)
	}
	// Every request context derives from base, so cancelling it unblocks
	// long-lived SSE streams — otherwise http.Server.Shutdown would wait on
	// them forever (an SSE subscriber is never "idle").
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		ln:   ln,
		stop: stop,
		srv: &http.Server{
			Handler:           Handler(opts),
			ReadHeaderTimeout: 5 * time.Second,
			BaseContext:       func(net.Listener) context.Context { return base },
		},
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops the server gracefully: it disconnects SSE subscribers (by
// cancelling their request contexts), stops accepting connections, and
// drains in-flight requests until ctx expires, at which point remaining
// connections are closed hard.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stop()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Deadline hit with connections still open: close them hard. The
		// shutdown error (the deadline) is the one worth reporting.
		s.srv.Close()
	}
	return err
}

// Close shuts the server down immediately, dropping open SSE streams.
func (s *Server) Close() error {
	s.stop()
	return s.srv.Close()
}
