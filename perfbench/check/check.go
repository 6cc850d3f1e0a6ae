// Package check holds the benchmark's correctness checkers. Each checker
// judges one answer of the solve service against a property the method must
// have (convergence to the Newton tolerance, a planted root, an FNV digest
// recomputed from the solution vector, frame order) — never against a
// stored copy of an earlier answer of the same program. The checkers decode
// the wire format into their own types, so a change to the service's Go
// structs cannot make a wrong answer look right.
package check

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
)

// Tol is the digital Newton tolerance the service solves to: core.Options
// defaults Newton.Tol to 1e-12 on ‖F(u)‖₂ and sets no relative tolerance.
const Tol = 1e-12

// Tally counts operations and the ones whose answer failed a check.
type Tally struct {
	Attempted int
	Failed    int
	// First is the first failure seen, kept for the run's diagnostics.
	First error
}

// Record counts one operation; a non-nil err marks it failed.
func (t *Tally) Record(err error) {
	t.Attempted++
	if err != nil {
		t.Failed++
		if t.First == nil {
			t.First = err
		}
	}
}

// Answer is the part of a POST /v1/solve body the checkers read.
type Answer struct {
	Converged       bool    `json:"converged"`
	Iterations      int     `json:"newton_iterations"`
	Residual        float64 `json:"residual"`
	InitialResidual float64 `json:"initial_residual"`
	SeedResidual    float64 `json:"seed_residual"`
	AnalogUsed      bool    `json:"analog_used"`
	Degraded        bool    `json:"degraded"`
	Rung            string  `json:"rung"`
	QueueSeconds    float64 `json:"queue_seconds"`
	SolveSeconds    float64 `json:"solve_seconds"`
	Error           string  `json:"error"`
}

// Solve checks a buffered answer: status 200, no error, converged, and a
// finite residual at or below Tol.
func Solve(status int, body []byte) (Answer, error) {
	var a Answer
	if status != http.StatusOK {
		return a, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("decoding answer: %w", err)
	}
	if a.Error != "" {
		return a, fmt.Errorf("answer carries error %q", a.Error)
	}
	if !a.Converged {
		return a, errors.New("answer is not converged")
	}
	if !(a.Residual <= Tol) {
		return a, fmt.Errorf("residual %g above the Newton tolerance %g", a.Residual, Tol)
	}
	return a, nil
}

// Analog checks an analog-seeded answer: the analog rung served it, it is
// not degraded, the seed was used and it improved on the start.
func Analog(a Answer) error {
	switch {
	case a.Rung != "analog":
		return fmt.Errorf("served by rung %q, want analog", a.Rung)
	case a.Degraded:
		return errors.New("answer is degraded")
	case !a.AnalogUsed:
		return errors.New("analog seed was not used")
	case !(a.SeedResidual < a.InitialResidual):
		return fmt.Errorf("seed residual %g does not improve on initial residual %g", a.SeedResidual, a.InitialResidual)
	}
	return nil
}

// SeededIters checks that a seeded solve needed no more Newton iterations
// than the same request unseeded.
func SeededIters(seeded, unseeded int) error {
	if seeded > unseeded {
		return fmt.Errorf("seeded solve took %d Newton iterations, unseeded %d", seeded, unseeded)
	}
	return nil
}

// StripTimings removes the measured "queue_seconds" and "solve_seconds"
// members from a JSON object body, the only members allowed to differ
// between an answer and its exact revisit.
func StripTimings(body []byte) []byte {
	out := body
	for _, key := range []string{`"queue_seconds":`, `"solve_seconds":`} {
		i := bytes.Index(out, []byte(key))
		if i < 0 {
			continue
		}
		j := i + len(key)
		for j < len(out) && out[j] != ',' && out[j] != '}' {
			j++
		}
		if j < len(out) && out[j] == ',' {
			j++
		} else if i > 0 && out[i-1] == ',' {
			i--
		}
		out = append(append([]byte{}, out[:i]...), out[j:]...)
	}
	return out
}

// Revisit checks that an exact revisit returned the first answer's bytes,
// apart from the measured timing members.
func Revisit(first, again []byte) error {
	if !bytes.Equal(StripTimings(first), StripTimings(again)) {
		return fmt.Errorf("revisit body differs from the first answer:\n first %s\n again %s", bytes.TrimSpace(first), bytes.TrimSpace(again))
	}
	return nil
}

// Frame is the part of one NDJSON stream frame the checkers read.
type Frame struct {
	Step      int       `json:"step"`
	Residual  float64   `json:"residual"`
	Converged bool      `json:"converged"`
	Degraded  bool      `json:"degraded"`
	Checksum  string    `json:"checksum"`
	U         []float64 `json:"u"`
}

// Summary is the final NDJSON line of a stream.
type Summary struct {
	Done         bool    `json:"done"`
	Frames       int     `json:"frames"`
	QueueSeconds float64 `json:"queue_seconds"`
	SolveSeconds float64 `json:"solve_seconds"`
	Error        string  `json:"error"`
}

// Trajectory is a decoded stream.
type Trajectory struct {
	Frames  []Frame
	Summary Summary
}

// Stream decodes and checks a POST /v1/stream body of steps frames:
// exactly steps frame lines numbered 1..steps in order, each converged to
// Tol and not degraded, then a done:true summary counting them. When the
// frames carry solution vectors, each checksum is recomputed from its
// vector.
func Stream(status int, body []byte, steps int) (Trajectory, error) {
	var tr Trajectory
	if status != http.StatusOK {
		return tr, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	sawSummary := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if sawSummary {
			return tr, errors.New("line after the summary")
		}
		if bytes.Contains(line, []byte(`"done":`)) {
			if err := json.Unmarshal(line, &tr.Summary); err != nil {
				return tr, fmt.Errorf("decoding summary: %w", err)
			}
			sawSummary = true
			continue
		}
		var f Frame
		if err := json.Unmarshal(line, &f); err != nil {
			return tr, fmt.Errorf("decoding frame %d: %w", len(tr.Frames)+1, err)
		}
		tr.Frames = append(tr.Frames, f)
	}
	if err := sc.Err(); err != nil {
		return tr, err
	}
	if !sawSummary {
		return tr, errors.New("stream has no summary line")
	}
	if !tr.Summary.Done || tr.Summary.Error != "" {
		return tr, fmt.Errorf("summary is not done (error %q)", tr.Summary.Error)
	}
	if len(tr.Frames) != steps || tr.Summary.Frames != steps {
		return tr, fmt.Errorf("got %d frames (summary says %d), want %d", len(tr.Frames), tr.Summary.Frames, steps)
	}
	for i, f := range tr.Frames {
		if f.Step != i+1 {
			return tr, fmt.Errorf("frame %d carries step %d", i+1, f.Step)
		}
		if !f.Converged || !(f.Residual <= Tol) {
			return tr, fmt.Errorf("step %d: converged=%v residual %g (tolerance %g)", f.Step, f.Converged, f.Residual, Tol)
		}
		if f.Degraded {
			return tr, fmt.Errorf("step %d is degraded", f.Step)
		}
		if f.U != nil {
			if got := Checksum(f.U); got != f.Checksum {
				return tr, fmt.Errorf("step %d: checksum %s, recomputed from u %s", f.Step, f.Checksum, got)
			}
		}
	}
	return tr, nil
}

// Checksums lists a trajectory's per-frame checksums.
func (tr Trajectory) Checksums() []string {
	out := make([]string, len(tr.Frames))
	for i, f := range tr.Frames {
		out[i] = f.Checksum
	}
	return out
}

// SameChecksums checks that a repeated trajectory reproduced every frame
// checksum.
func SameChecksums(first, again []string) error {
	if len(first) != len(again) {
		return fmt.Errorf("repeat has %d frames, first run %d", len(again), len(first))
	}
	for i := range first {
		if first[i] != again[i] {
			return fmt.Errorf("step %d: checksum %s on repeat, %s first", i+1, again[i], first[i])
		}
	}
	return nil
}

// Checksum is FNV-64a over the little-endian float64 bits of u, as 16 hex
// digits: the digest stream frames carry, computed here independently.
func Checksum(u []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range u {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// MaxAbsDiff is the largest |a[i]-b[i]|; +Inf on a length mismatch.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if !(d <= m) {
			m = d
		}
	}
	return m
}

// Root checks that a solve recovered the planted root within bound in the
// max norm.
func Root(u, root []float64, bound float64) error {
	if d := MaxAbsDiff(u, root); !(d <= bound) {
		return fmt.Errorf("solution is %g from the planted root (bound %g)", d, bound)
	}
	return nil
}

// Trajectories checks that two solution trajectories of the same transient
// problem (chord and classical Newton) agree step by step within tol.
func Trajectories(a, b [][]float64, tol float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("trajectories have %d and %d steps", len(a), len(b))
	}
	for i := range a {
		if d := MaxAbsDiff(a[i], b[i]); !(d <= tol) {
			return fmt.Errorf("step %d: trajectories differ by %g (tolerance %g)", i+1, d, tol)
		}
	}
	return nil
}
