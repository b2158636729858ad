package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// TestSIGINTThenResumeByteIdentical is the end-to-end crash-safety check:
// build the real binary, interrupt a checkpointed sweep with SIGINT
// mid-run, resume it, and require the resumed TSV to be byte-identical to
// an uninterrupted run. The assertion holds regardless of where the
// signal lands — if the sweep finishes before the interrupt, the resume
// simply replays a complete journal and reproduces the same rows.
func TestSIGINTThenResumeByteIdentical(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal semantics required")
	}
	if testing.Short() {
		t.Skip("builds and runs the sweep binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sweep")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Big enough (~2s at two workers) that SIGINT reliably lands mid-run,
	// small enough to stay test-suite friendly.
	args := []string{"-param", "r", "-values", "2,2.5,3", "-n", "30000",
		"-trials", "8", "-max-steps", "60000", "-seed", "3", "-workers", "2"}
	ckpt := filepath.Join(dir, "sweep.ckpt")

	run := func(extra ...string) ([]byte, []byte, error) {
		cmd := exec.Command(bin, append(append([]string{}, args...), extra...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		return stdout.Bytes(), stderr.Bytes(), err
	}

	want, _, err := run()
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	// Interrupted run: SIGINT shortly after start.
	cmd := exec.Command(bin, append(append([]string{}, args...), "-checkpoint", ckpt)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	time.Sleep(250 * time.Millisecond)
	_ = cmd.Process.Signal(syscall.SIGINT)
	err = cmd.Wait()
	interrupted := err != nil
	if interrupted {
		// A drained interrupt must exit nonzero, leave a journal behind,
		// and tell the user how to continue.
		if _, statErr := os.Stat(ckpt); statErr != nil {
			t.Fatalf("interrupted run left no checkpoint: %v\nstderr: %s", statErr, stderr.Bytes())
		}
		if !bytes.Contains(stderr.Bytes(), []byte("-resume")) {
			t.Errorf("interrupted run's stderr carries no -resume hint:\n%s", stderr.Bytes())
		}
	} else if !bytes.Equal(stdout.Bytes(), want) {
		// Signal landed after completion: the run must already match.
		t.Fatalf("completed run differs from baseline\ngot: %s\nwant: %s", stdout.Bytes(), want)
	}

	got, resumeErr, err := run("-checkpoint", ckpt, "-resume")
	if err != nil {
		t.Fatalf("resume: %v\nstderr: %s", err, resumeErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed TSV differs from uninterrupted run\ngot: %s\nwant: %s", got, want)
	}
}

// buildSweep compiles the real binary for CLI-behavior tests.
func buildSweep(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the sweep binary")
	}
	bin := filepath.Join(t.TempDir(), "sweep")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runSweep executes the binary and returns stdout, stderr, and the exit
// code (0 on success, -1 if the process did not run at all).
func runSweep(t *testing.T, bin string, args ...string) ([]byte, []byte, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.Bytes(), stderr.Bytes(), code
}

// TestResumeFlagValidation pins the two usage-error paths to exit code 2
// with actionable messages: -resume without -checkpoint, and -resume
// against a journal recorded under different sweep flags.
func TestResumeFlagValidation(t *testing.T) {
	bin := buildSweep(t)
	fast := []string{"-param", "r", "-values", "3,5", "-n", "400",
		"-trials", "2", "-max-steps", "5000", "-seed", "7"}

	_, stderr, code := runSweep(t, bin, append(append([]string{}, fast...), "-resume")...)
	if code != 2 || !bytes.Contains(stderr, []byte("-resume requires -checkpoint")) {
		t.Fatalf("resume without checkpoint: code=%d stderr=%s", code, stderr)
	}

	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, stderr, code := runSweep(t, bin, append(append([]string{}, fast...), "-checkpoint", ckpt)...); code != 0 {
		t.Fatalf("seed run failed: code=%d stderr=%s", code, stderr)
	}

	// Same journal, different flags: the fingerprints cannot match.
	mismatched := []string{"-param", "r", "-values", "3,5", "-n", "400",
		"-trials", "2", "-max-steps", "5000", "-seed", "8",
		"-checkpoint", ckpt, "-resume"}
	_, stderr, code = runSweep(t, bin, mismatched...)
	if code != 2 {
		t.Fatalf("mismatched resume: code=%d, want 2\nstderr: %s", code, stderr)
	}
	if !bytes.Contains(stderr, []byte("different sweep")) || !bytes.Contains(stderr, []byte("original flags")) {
		t.Fatalf("mismatched resume stderr not actionable:\n%s", stderr)
	}

	// The same flags still resume cleanly — the journal was not damaged
	// by the refusal.
	if _, stderr, code := runSweep(t, bin, append(append([]string{}, fast...), "-checkpoint", ckpt, "-resume")...); code != 0 {
		t.Fatalf("matching resume failed: code=%d stderr=%s", code, stderr)
	}
}

// TestTimeoutDrainsAndResumes: a sweep that blows its -timeout drains
// like an interrupt — partial results, nonzero exit, a -resume hint —
// and the resumed run is byte-identical to an uninterrupted one.
func TestTimeoutDrainsAndResumes(t *testing.T) {
	bin := buildSweep(t)
	args := []string{"-param", "r", "-values", "2,2.5,3", "-n", "30000",
		"-trials", "8", "-max-steps", "60000", "-seed", "5", "-workers", "2"}
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")

	want, stderr, code := runSweep(t, bin, args...)
	if code != 0 {
		t.Fatalf("baseline: code=%d stderr=%s", code, stderr)
	}

	_, stderr, code = runSweep(t, bin, append(append([]string{}, args...),
		"-checkpoint", ckpt, "-timeout", "300ms")...)
	if code == 0 {
		// The whole sweep fit inside the budget on this machine; nothing
		// left to assert about draining.
		t.Skip("sweep completed within the timeout budget")
	}
	if code != 1 {
		t.Fatalf("timed-out run: code=%d, want 1\nstderr: %s", code, stderr)
	}
	if !bytes.Contains(stderr, []byte("-timeout")) || !bytes.Contains(stderr, []byte("-resume")) {
		t.Fatalf("timed-out run's stderr lacks the timeout/resume hints:\n%s", stderr)
	}

	got, stderr, code := runSweep(t, bin, append(append([]string{}, args...),
		"-checkpoint", ckpt, "-resume")...)
	if code != 0 {
		t.Fatalf("resume: code=%d stderr=%s", code, stderr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed TSV differs from uninterrupted run\ngot: %s\nwant: %s", got, want)
	}
}

// TestSIGKILLThenResumeByteIdentical: a checkpointed sweep appends every
// trial to its journal as the trial finishes, so a SIGKILL — no drain, no
// exit path — keeps the trials completed so far, and the resumed run
// prints the uninterrupted TSV byte for byte.
func TestSIGKILLThenResumeByteIdentical(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal semantics required")
	}
	bin := buildSweep(t)
	// About a second at one worker: the kill lands after the first
	// trial, long before the last.
	args := []string{"-param", "r", "-values", "2,4", "-n", "1000",
		"-trials", "800", "-seed", "3", "-workers", "1"}
	const cells = 2 * 800
	want, stderr, code := runSweep(t, bin, args...)
	if code != 0 {
		t.Fatalf("baseline: code=%d stderr=%s", code, stderr)
	}

	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	cmd := exec.Command(bin, append(append([]string{}, args...), "-checkpoint", ckpt)...)
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	// entries counts the journal's complete entry lines (the header is
	// the first line).
	entries := func() int {
		data, err := os.ReadFile(ckpt)
		if err != nil {
			return 0
		}
		return max(bytes.Count(data, []byte("\n"))-1, 0)
	}
	for entries() == 0 {
		select {
		case err := <-exited:
			t.Fatalf("the sweep exited (%v) before its journal held an entry: trials are not journaled as they finish", err)
		case <-time.After(time.Millisecond):
		}
	}
	_ = cmd.Process.Signal(syscall.SIGKILL)
	<-exited
	if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() {
		t.Fatalf("the sweep exited (%v) before the SIGKILL landed: its journal held no entry until the sweep was done", cmd.ProcessState)
	}
	if n := entries(); n >= cells {
		t.Fatalf("the killed sweep journaled %d of %d cells: it was not killed mid-run", n, cells)
	}

	got, stderr, code := runSweep(t, bin, append(append([]string{}, args...), "-checkpoint", ckpt, "-resume")...)
	if code != 0 {
		t.Fatalf("resume: code=%d stderr=%s", code, stderr)
	}
	if !bytes.Contains(stderr, []byte("resuming")) {
		t.Errorf("resume did not report recorded trials:\n%s", stderr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed TSV differs from uninterrupted run\ngot: %s\nwant: %s", got, want)
	}
}
