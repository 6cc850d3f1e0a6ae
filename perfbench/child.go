package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"hybridpde/internal/cluster"
	"hybridpde/internal/serve"
)

// The serving side of a workload runs in a child process of the benchmark
// (the same binary, started with -child), so its CPU time and peak memory
// are read apart from the client's and no workload's memory carries into
// another's. The child boots the backends and the gateway a workload asks
// for on loopback listeners, prints one JSON line naming their addresses,
// and serves until its standard input closes.

// ridHeader carries the benchmark's request id from the client to the
// gateway, and from the gateway's upstream transport to the backend.
const ridHeader = "X-Bench-Request-Id"

// topology is the serving side of one workload.
type topology struct {
	// Backends lists the pdeserved instances; Workers 0 keeps the
	// production default (GOMAXPROCS).
	Backends []backendSpec `json:"backends"`
	// Gateway puts a pdegw in front of the backends, with default flags.
	Gateway bool `json:"gateway"`
	// MaxGridN is -max-grid on every server; 0 keeps the default 12.
	MaxGridN int `json:"max_grid,omitempty"`
	// Trace wraps every API handler in a span recorder.
	Trace bool `json:"trace,omitempty"`
}

type backendSpec struct {
	Workers int `json:"workers,omitempty"`
}

// ready is the child's one-line announcement.
type ready struct {
	Entry    string   `json:"entry"`
	Gateway  string   `json:"gateway,omitempty"`
	Backends []string `json:"backends"`
	Control  string   `json:"control"`
}

// usage is the child's resource account, served on its control listener.
type usage struct {
	CPUNanos   int64  `json:"cpu_ns"`
	MaxRSSKiB  int64  `json:"maxrss_kib"`
	TotalAlloc uint64 `json:"total_alloc"`
}

// serverSpan is one handler invocation recorded by the span wrapper.
// FirstWrite is the instant of the first body write (0 when none).
type serverSpan struct {
	Name       string `json:"name"`
	RID        string `json:"rid"`
	Start      int64  `json:"start"`
	End        int64  `json:"end"`
	FirstWrite int64  `json:"first_write,omitempty"`
}

// backendName is the fixed host name of backend i on the gateway's ring.
// The ring hashes member URLs, so fixed names (resolved to the real
// loopback ports by the gateway's dialer) keep the shape-to-backend layout
// the same in every run.
func backendName(i int) string { return fmt.Sprintf("http://pdeserved-%d.bench", i) }

type spanLog struct {
	mu    sync.Mutex
	spans []serverSpan
}

func (l *spanLog) add(s serverSpan) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []serverSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]serverSpan(nil), l.spans...)
}

type ridKey struct{}

// wrap records a span around every solve and stream request of h.
func (l *spanLog) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/solve" && r.URL.Path != "/v1/stream" {
			h.ServeHTTP(w, r)
			return
		}
		sp := serverSpan{Name: name, RID: r.Header.Get(ridHeader), Start: nowNS()}
		fw := &firstWrite{ResponseWriter: w}
		h.ServeHTTP(fw, r.WithContext(context.WithValue(r.Context(), ridKey{}, sp.RID)))
		sp.End = nowNS()
		sp.FirstWrite = fw.at
		l.add(sp)
	})
}

// firstWrite timestamps the first body write of a response.
type firstWrite struct {
	http.ResponseWriter
	at int64
}

func (f *firstWrite) Write(p []byte) (int, error) {
	if f.at == 0 {
		f.at = nowNS()
	}
	return f.ResponseWriter.Write(p)
}

func (f *firstWrite) Flush() {
	if fl, ok := f.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (f *firstWrite) Unwrap() http.ResponseWriter { return f.ResponseWriter }

// ridTransport copies the request id from the gateway's inbound request
// context onto its upstream call.
type ridTransport struct{ base http.RoundTripper }

func (t ridTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if rid, ok := r.Context().Value(ridKey{}).(string); ok && rid != "" {
		r = r.Clone(r.Context())
		r.Header.Set(ridHeader, rid)
	}
	return t.base.RoundTrip(r)
}

// runChild is the -child entry point: boot the topology, announce it,
// serve until stdin closes, then drain and exit.
func runChild(spec string) int {
	var topo topology
	if err := json.Unmarshal([]byte(spec), &topo); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	var (
		spans   spanLog
		servers []*http.Server
		solvers []*serve.Server
		ann     ready
		errc    = make(chan error, len(topo.Backends)+2)
		wg      sync.WaitGroup
	)
	listen := func(name string, h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		if topo.Trace {
			h = spans.wrap(name, h)
		}
		srv := &http.Server{Handler: h}
		servers = append(servers, srv)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				errc <- err
			}
		}()
		return ln.Addr().String(), nil
	}

	dial := map[string]string{}
	for i, b := range topo.Backends {
		s := serve.NewServer(serve.Config{Workers: b.Workers, MaxGridN: topo.MaxGridN})
		solvers = append(solvers, s)
		addr, err := listen(fmt.Sprintf("pdeserved-%d", i), s.Handler())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
		ann.Backends = append(ann.Backends, addr)
		dial[strings.TrimPrefix(backendName(i), "http://")+":80"] = addr
	}
	ann.Entry = ann.Backends[0]

	var gw *cluster.Gateway
	if topo.Gateway {
		names := make([]string, len(topo.Backends))
		for i := range names {
			names[i] = backendName(i)
		}
		dialer := &net.Dialer{}
		// The production default transport, with loopback name resolution.
		var rt http.RoundTripper = &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				if real, ok := dial[addr]; ok {
					addr = real
				}
				return dialer.DialContext(ctx, network, addr)
			},
		}
		if topo.Trace {
			rt = ridTransport{base: rt}
		}
		var err error
		gw, err = cluster.New(cluster.Config{Backends: names, MaxGridN: topo.MaxGridN, Client: &http.Client{Transport: rt}})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
		if ann.Gateway, err = listen("pdegw", gw.Handler()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
		ann.Entry = ann.Gateway
	}

	ctl := http.NewServeMux()
	ctl.HandleFunc("GET /usage", func(w http.ResponseWriter, r *http.Request) {
		u, err := readUsage()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, u)
	})
	ctl.HandleFunc("GET /spans", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, spans.snapshot())
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	ctlSrv := &http.Server{Handler: ctl}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ctlSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	ann.Control = ln.Addr().String()

	line, err := json.Marshal(ann)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	fmt.Println(string(line))

	// Serve until the parent closes stdin (or dies, which closes it too).
	stdinClosed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := io.Copy(io.Discard, os.Stdin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child: stdin:", err)
		}
		close(stdinClosed)
	}()
	code := 0
	select {
	case <-stdinClosed:
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		code = 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if gw != nil {
		gw.BeginDrain()
	}
	for _, s := range solvers {
		s.BeginDrain()
	}
	// Listeners close in reverse start order: gateway before backends.
	for i := len(servers) - 1; i >= 0; i-- {
		if err := servers[i].Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child: shutdown:", err)
			code = 1
		}
	}
	if err := ctlSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: shutdown:", err)
		code = 1
	}
	if gw != nil {
		gw.Close()
	}
	if code == 0 {
		wg.Wait()
	}
	return code
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: encode:", err)
	}
}

// readUsage reads the process's CPU time, peak resident set and Go heap
// allocation total.
func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{CPUNanos: ru.Utime.Nano() + ru.Stime.Nano(), MaxRSSKiB: ru.Maxrss, TotalAlloc: ms.TotalAlloc}, nil
}
