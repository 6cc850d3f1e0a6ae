package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// servers is a running serving-side child process.
type servers struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	ready
}

// startServers launches the child for topo and waits until it announces
// its listeners and its entry point reports ready.
func startServers(ctx context.Context, topo topology) (*servers, error) {
	spec, err := json.Marshal(topo)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", string(spec))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &servers{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &s.ready)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("child announcement: %w", err), s.stop())
	}
	for {
		resp, err := http.Get("http://" + s.Entry + "/healthz")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
			if err == nil && resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if ctx.Err() != nil {
			return nil, errors.Join(fmt.Errorf("servers never became ready: %w", ctx.Err()), s.stop())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the child's stdin (its shutdown signal) and waits for it to
// exit, killing it if it has not drained within ten seconds.
func (s *servers) stop() error {
	closeErr := s.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return errors.Join(closeErr, err)
	case <-time.After(10 * time.Second):
		killErr := s.cmd.Process.Kill()
		return errors.Join(errors.New("child did not drain in 10s"), closeErr, killErr, <-done)
	}
}

// usage reads the child's resource account.
func (s *servers) usage(c *http.Client) (usage, error) {
	var u usage
	err := getJSON(c, "http://"+s.Control+"/usage", &u)
	return u, err
}

// spans fetches the child's recorded handler spans.
func (s *servers) spans(c *http.Client) ([]serverSpan, error) {
	var sp []serverSpan
	err := getJSON(c, "http://"+s.Control+"/spans", &sp)
	return sp, err
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads a Prometheus text page into series → value.
func scrape(c *http.Client, addr string) (map[string]float64, error) {
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte([]byte(line), ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// opSample is the client's record of one timed operation.
type opSample struct {
	RID        string
	Start, End int64
	// FirstLine and Lines are the arrival instants of the first and of
	// every NDJSON line (streams only).
	FirstLine int64
	Lines     []int64
	// Queue and Solve are the served queue_seconds and solve_seconds.
	Queue, Solve float64
}

func (o opSample) latency() float64 { return float64(o.End-o.Start) / 1e6 }

// client is the benchmark's single closed-loop client.
type client struct {
	http   *http.Client
	base   string
	prefix string
	next   int
}

func newClient(entry, prefix string) *client {
	return &client{
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: 90 * time.Second}},
		base:   "http://" + entry,
		prefix: prefix,
	}
}

// opTimeout bounds one operation; a healthy run never comes close.
const opTimeout = 60 * time.Second

// do sends one POST and reads the whole answer, minting the request id.
// For streams it timestamps every line as it arrives.
func (c *client) do(ctx context.Context, path string, body []byte) (int, []byte, opSample, error) {
	c.next++
	sample := opSample{RID: c.prefix + strconv.Itoa(c.next)}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, sample, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ridHeader, sample.RID)
	sample.Start = nowNS()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, sample, err
	}
	defer resp.Body.Close()
	var out []byte
	if path == "/v1/stream" {
		r := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			var line []byte
			line, err = r.ReadBytes('\n')
			if len(line) > 0 {
				at := nowNS()
				if sample.FirstLine == 0 {
					sample.FirstLine = at
				}
				sample.Lines = append(sample.Lines, at)
				out = append(out, line...)
			}
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				break
			}
		}
	} else {
		out, err = io.ReadAll(resp.Body)
	}
	sample.End = nowNS()
	return resp.StatusCode, out, sample, err
}
