package parowl_test

// Subprocess kill-and-resume driver for the barrier-free scheduler:
// owlclass -sched async is SIGKILLed mid-run and restarted with -resume
// until a run survives. Async snapshots are cut at quiescence epochs, not
// batch barriers, so this is the OS-level proof that an epoch-consistent
// snapshot restores into the byte-identical taxonomy of an uninterrupted
// run.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestCLIKillAndResumeAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill loop is slow")
	}
	dir := t.TempDir()
	owlclass := buildCmd(t, dir, "owlclass")
	ontogen := buildCmd(t, dir, "ontogen")

	onto := filepath.Join(dir, "corpus.obo")
	if out, err := exec.Command(ontogen, "-profile", "WBbt.obo", "-scale", "100", "-seed", "5", "-o", onto).CombinedOutput(); err != nil {
		t.Fatalf("ontogen: %v\n%s", err, out)
	}

	// The reference is a plain round-robin run: cross-policy equivalence
	// means the async crash loop must land on the same bytes. Both runs
	// turn the pipeline off, or the complete EL corpus would be decided
	// without a plug-in call before the first kill.
	plain := []string{"-prepass=false", "-modelfilter=false"}
	ref, err := exec.Command(owlclass, append(plain, "-workers", "4", "-cycles", "6", onto)...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	ck := filepath.Join(dir, "run.ck")
	common := append(plain, "-sched", "async", "-workers", "4", "-cycles", "6",
		"-checkpoint", ck, "-checkpoint-interval", "0", "-chaos", "slow=1ms,seed=1")

	kills := 0
	var final []byte
	for attempt := 0; ; attempt++ {
		if attempt > 25 {
			t.Fatalf("no run survived after %d attempts (%d kills)", attempt, kills)
		}
		args := append([]string{}, common...)
		if _, err := os.Stat(ck); err == nil {
			args = append(args, "-resume", ck)
		}
		args = append(args, onto)

		var stdout, stderr bytes.Buffer
		cmd := exec.Command(owlclass, args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()

		// Exponentially escalating kill delay, as in the work-stealing
		// driver: early kills land before the first snapshot, later
		// attempts run long enough to finish.
		delay := 30 * time.Millisecond
		for i := 0; i < attempt; i++ {
			delay = delay * 135 / 100
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("attempt %d: owlclass failed: %v\n%s", attempt, err, stderr.String())
			}
			for _, banned := range []string{"not resumable", "checkpoint writes failed", "undecided"} {
				if strings.Contains(stderr.String(), banned) {
					t.Fatalf("attempt %d: unexpected warning:\n%s", attempt, stderr.String())
				}
			}
			final = stdout.Bytes()
		case <-time.After(delay):
			if err := cmd.Process.Signal(syscall.SIGKILL); err == nil {
				kills++
			}
			<-done // reap; exit error expected after SIGKILL
			continue
		}
		break
	}

	if kills == 0 {
		t.Fatal("no run was actually killed; the driver proved nothing")
	}
	if !bytes.Equal(final, ref) {
		t.Errorf("async taxonomy after %d kills differs from uninterrupted round-robin run:\n got:\n%s\nwant:\n%s",
			kills, final, ref)
	}
	t.Logf("converged after %d kill(s)", kills)
}
