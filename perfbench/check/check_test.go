package check

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const goodSolve = `{"problem":"burgers-steady","dim":50,"converged":true,"newton_iterations":3,"residual":4e-15,"initial_residual":0.02,"rung":"digital","rung_attempts":1,"queue_seconds":0.00001,"solve_seconds":0.0002}`

const goodAnalog = `{"problem":"burgers2d","dim":128,"converged":true,"newton_iterations":3,"residual":1e-15,"initial_residual":2.5,"seed_residual":0.01,"analog_used":true,"seed_accepted":true,"rung":"analog","rung_attempts":1,"queue_seconds":0.00001,"solve_seconds":0.004}`

// tally runs one operation's check through a fresh Tally, the way the
// benchmark counts operations.
func tally(err error) Tally {
	var t Tally
	t.Record(err)
	return t
}

func wantFailed(t *testing.T, err error) {
	t.Helper()
	if got := tally(err); got.Attempted != 1 || got.Failed != 1 {
		t.Fatalf("tally = %+v, want the operation counted as failed", got)
	}
}

func wantPassed(t *testing.T, err error) {
	t.Helper()
	if got := tally(err); got.Failed != 0 {
		t.Fatalf("good answer counted as failed: %v", got.First)
	}
}

func TestSolveAcceptsGoodAnswer(t *testing.T) {
	_, err := Solve(200, []byte(goodSolve))
	wantPassed(t, err)
}

func TestSolveResidualAboveTolerance(t *testing.T) {
	body := strings.Replace(goodSolve, `"residual":4e-15`, `"residual":3e-9`, 1)
	_, err := Solve(200, []byte(body))
	wantFailed(t, err)
}

func TestSolveNotConverged(t *testing.T) {
	body := strings.Replace(goodSolve, `"converged":true`, `"converged":false`, 1)
	_, err := Solve(200, []byte(body))
	wantFailed(t, err)
}

func TestSolveBadStatus(t *testing.T) {
	_, err := Solve(429, []byte(`{"error":"admission queue full"}`))
	wantFailed(t, err)
}

func TestAnalogAcceptsGoodAnswer(t *testing.T) {
	a, err := Solve(200, []byte(goodAnalog))
	if err == nil {
		err = Analog(a)
	}
	wantPassed(t, err)
}

func TestAnalogDegraded(t *testing.T) {
	body := strings.Replace(goodAnalog, `"rung":"analog"`, `"degraded":true,"rung":"digital"`, 1)
	a, err := Solve(200, []byte(body))
	if err == nil {
		err = Analog(a)
	}
	wantFailed(t, err)
}

func TestAnalogSeedNoBetterThanStart(t *testing.T) {
	body := strings.Replace(goodAnalog, `"seed_residual":0.01`, `"seed_residual":3.1`, 1)
	a, err := Solve(200, []byte(body))
	if err == nil {
		err = Analog(a)
	}
	wantFailed(t, err)
}

func TestSeededIters(t *testing.T) {
	wantPassed(t, SeededIters(3, 4))
	wantFailed(t, SeededIters(5, 4))
}

func TestRevisitIgnoresOnlyTimings(t *testing.T) {
	again := strings.Replace(goodSolve, `"queue_seconds":0.00001,"solve_seconds":0.0002`, `"queue_seconds":0.5,"solve_seconds":1e-7`, 1)
	wantPassed(t, Revisit([]byte(goodSolve), []byte(again)))
	changed := strings.Replace(again, `"newton_iterations":3`, `"newton_iterations":4`, 1)
	wantFailed(t, Revisit([]byte(goodSolve), []byte(changed)))
}

// stream renders a K-step stream body; mutate edits the frames before
// they are encoded.
func stream(t *testing.T, steps int, withU bool, mutate func([]Frame) []Frame, done bool) []byte {
	t.Helper()
	frames := make([]Frame, steps)
	for i := range frames {
		u := []float64{0.1 * float64(i), -0.25, 1.0 / 3}
		frames[i] = Frame{Step: i + 1, Residual: 1e-14, Converged: true, Checksum: Checksum(u)}
		if withU {
			frames[i].U = u
		}
	}
	if mutate != nil {
		frames = mutate(frames)
	}
	var b strings.Builder
	for _, f := range frames {
		line, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if done {
		fmt.Fprintf(&b, `{"done":true,"problem":"burgers2d","frames":%d,"queue_seconds":0,"solve_seconds":0.01}`+"\n", len(frames))
	}
	return []byte(b.String())
}

func TestStreamAcceptsGoodTrajectory(t *testing.T) {
	_, err := Stream(200, stream(t, 4, true, nil, true), 4)
	wantPassed(t, err)
}

func TestStreamFrameMissing(t *testing.T) {
	body := stream(t, 4, false, func(f []Frame) []Frame { return append(f[:2], f[3:]...) }, true)
	_, err := Stream(200, body, 4)
	wantFailed(t, err)
}

func TestStreamFrameOutOfOrder(t *testing.T) {
	body := stream(t, 4, false, func(f []Frame) []Frame { f[1], f[2] = f[2], f[1]; return f }, true)
	_, err := Stream(200, body, 4)
	wantFailed(t, err)
}

func TestStreamNoDoneLine(t *testing.T) {
	_, err := Stream(200, stream(t, 4, false, nil, false), 4)
	wantFailed(t, err)
}

func TestStreamWrongChecksum(t *testing.T) {
	body := stream(t, 4, true, func(f []Frame) []Frame { f[2].Checksum = "0123456789abcdef"; return f }, true)
	_, err := Stream(200, body, 4)
	wantFailed(t, err)
}

func TestStreamResidualAboveTolerance(t *testing.T) {
	body := stream(t, 4, false, func(f []Frame) []Frame { f[3].Residual = 1e-6; return f }, true)
	_, err := Stream(200, body, 4)
	wantFailed(t, err)
}

func TestSameChecksums(t *testing.T) {
	a := []string{"a", "b", "c"}
	wantPassed(t, SameChecksums(a, []string{"a", "b", "c"}))
	wantFailed(t, SameChecksums(a, []string{"a", "x", "c"}))
}

func TestChecksumMatchesKnownDigest(t *testing.T) {
	// FNV-64a of no bytes is the offset basis.
	if got := Checksum(nil); got != "cbf29ce484222325" {
		t.Fatalf("Checksum(nil) = %s", got)
	}
}

func TestRootWrongPlantedRoot(t *testing.T) {
	root := []float64{0.1, -0.2, 0.3}
	wantPassed(t, Root([]float64{0.1, -0.2, 0.3 + 1e-12}, root, 1e-8))
	wantFailed(t, Root([]float64{0.1, -0.2, 0.31}, root, 1e-8))
}

func TestTrajectories(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	wantPassed(t, Trajectories(a, [][]float64{{1, 2}, {3, 4 + 1e-12}}, 1e-9))
	wantFailed(t, Trajectories(a, [][]float64{{1, 2}, {3, 4.1}}, 1e-9))
}

func TestStripTimings(t *testing.T) {
	got := string(StripTimings([]byte(`{"a":1,"queue_seconds":0.1,"solve_seconds":2e-3}`)))
	if got != `{"a":1}` {
		t.Fatalf("StripTimings = %s", got)
	}
}
