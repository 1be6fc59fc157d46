package parowl_test

// Subprocess kill-and-resume driver: owlclass is SIGKILLed mid-run — the
// OS-level analogue of a machine crash, with no chance for in-process
// cleanup — and restarted with -resume until a run survives. The final
// taxonomy must be byte-identical to an uninterrupted run's.

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

// buildCmd compiles one ./cmd binary into dir.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	build := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCLIKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill loop is slow")
	}
	dir := t.TempDir()
	owlclass := buildCmd(t, dir, "owlclass")
	ontogen := buildCmd(t, dir, "ontogen")

	onto := filepath.Join(dir, "corpus.obo")
	if out, err := exec.Command(ontogen, "-profile", "WBbt.obo", "-scale", "100", "-seed", "3", "-o", onto).CombinedOutput(); err != nil {
		t.Fatalf("ontogen: %v\n%s", err, out)
	}

	// Both runs use the paper's plain algorithm: the corpus is complete
	// EL, so the default pipeline would decide it without a plug-in call
	// and finish before the first kill.
	plain := []string{"-prepass=false", "-modelfilter=false"}
	ref, err := exec.Command(owlclass, append(plain, "-workers", "4", "-cycles", "6", onto)...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Chaos slow-down stretches the run so kills land mid-classification;
	// no fault rates, so interrupted runs stay deterministic. Extra random
	// cycles give the checkpointer more phase boundaries to snapshot at.
	ck := filepath.Join(dir, "run.ck")
	common := append(plain, "-workers", "4", "-cycles", "6", "-checkpoint", ck, "-checkpoint-interval", "0", "-chaos", "slow=1ms,seed=1")

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

		// Exponentially escalating kill delay: early attempts die fast
		// (often before the first snapshot), later ones run long enough to
		// finish; resumed runs also have less work left each time.
		delay := 30 * time.Millisecond
		for i := 0; i < attempt; i++ {
			delay = delay * 135 / 100
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("attempt %d: owlclass failed: %v\n%s", attempt, err, stderr.String())
			}
			// The chaos-active warning is expected; checkpoint trouble is not.
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
		t.Errorf("taxonomy after %d kills differs from uninterrupted run:\n got:\n%s\nwant:\n%s",
			kills, final, ref)
	}
	t.Logf("converged after %d kill(s)", kills)
}

// TestCLIResumeRejectsCorruptSnapshot: a corrupted checkpoint must warn
// and fall back to a clean run with the correct taxonomy, not fail or
// silently produce a wrong one.
func TestCLIResumeRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	owlclass := buildCmd(t, dir, "owlclass")

	onto := filepath.Join(dir, "mini.obo")
	src := "[Term]\nid: A\n\n[Term]\nid: B\nis_a: A\n\n[Term]\nid: C\nis_a: B\n"
	if err := os.WriteFile(onto, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := exec.Command(owlclass, onto).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	bad := filepath.Join(dir, "bad.ck")
	if err := os.WriteFile(bad, []byte("definitely not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(owlclass, "-resume", bad, onto)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("clean-run fallback failed: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "WARNING") {
		t.Errorf("no warning about the rejected snapshot:\n%s", stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), ref) {
		t.Errorf("fallback taxonomy differs:\n got:\n%s\nwant:\n%s", stdout.String(), ref)
	}
}
