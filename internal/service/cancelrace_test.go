package service

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestCancelRaceSlotRelease pins the terminal-state invariant documented
// on Job.requestCancel: racing Cancel against the worker's dequeue and
// completion, every interleaving (cancelled while queued, cancelled
// mid-run, cancel losing to completion) must release the dedupe slot
// exactly once — an identical resubmission gets a fresh run (or a cache
// hit), never a dead in-flight job — and journal at most one terminal
// record per job. Run under -race in CI.
func TestCancelRaceSlotRelease(t *testing.T) {
	cktText := readExample(t)
	jpath := filepath.Join(t.TempDir(), "journal.log")
	svc, err := Open(Options{Workers: 2, JournalPath: jpath, JournalSync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())

	variant := func(i int) string {
		return strings.Replace(cktText, "circuit invchain", fmt.Sprintf("circuit invchain%d", i), 1)
	}
	// slotFree checks that the hash's in-flight slot no longer points at
	// job j. Every terminal transition releases the slot under the
	// server lock before Done() can be observed closed, so no polling is
	// needed once Wait has returned.
	slotFree := func(hash string, j *Job) {
		svc.mu.Lock()
		cur := svc.inflight[hash]
		svc.mu.Unlock()
		if cur == j {
			t.Fatalf("dedupe slot for %s still held by terminal job %s", hash, j.ID)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const iters = 30
	for i := 0; i < iters; i++ {
		sub, err := svc.Submit(SubmitRequest{Circuit: variant(i)})
		if err != nil {
			t.Fatal(err)
		}
		j := sub.Job
		// Race the cancel against the worker picking the job up.
		done := make(chan struct{})
		go func() {
			svc.Cancel(j.ID)
			close(done)
		}()
		if _, err := svc.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		<-done
		slotFree(j.Hash, j)

		resub, err := svc.Submit(SubmitRequest{Circuit: variant(i)})
		if err != nil {
			t.Fatal(err)
		}
		if resub.Deduped {
			t.Fatalf("iter %d: resubmission after terminal state deduped onto dead job %s", i, j.ID)
		}
		// Don't let fresh reruns pile up; their cancels race too.
		if !resub.Cached {
			svc.Cancel(resub.Job.ID)
			if _, err := svc.Wait(ctx, resub.Job.ID); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Drain, then audit the journal: at most one terminal record per job.
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	jl, recs, err := journal.Open(jpath, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	jl.Close()
	terminals := map[string]int{}
	for _, rec := range recs {
		if rec.Kind != journal.KindTerminal {
			continue
		}
		var jr jrecTerminal
		if err := json.Unmarshal(rec.Data, &jr); err != nil {
			t.Fatalf("bad terminal record: %v", err)
		}
		terminals[jr.ID]++
	}
	for id, n := range terminals {
		if n != 1 {
			t.Errorf("job %s has %d terminal journal records, want 1", id, n)
		}
	}
	if len(terminals) == 0 {
		t.Fatal("no terminal records journaled; the audit asserted nothing")
	}
}

// TestResubmitAfterWaitIsCached pins the completion order of a finished
// job: the result is cached and the dedupe slot released before Done()
// closes, so a resubmission issued the moment Wait returns is a cache
// hit every time — never a dedup onto the job that just finished. A
// goroutine contending for the server lock widens the window in which
// a completion that published after closing Done() would be caught.
// Run under -race in CI.
func TestResubmitAfterWaitIsCached(t *testing.T) {
	cktText := readExample(t)
	svc := New(Options{Workers: 1, Logf: silentLogf})
	defer svc.Shutdown(context.Background())

	stop := make(chan struct{})
	contended := make(chan struct{})
	go func() {
		defer close(contended)
		for {
			select {
			case <-stop:
				return
			default:
				svc.Metrics()
			}
		}
	}()
	defer func() { close(stop); <-contended }()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const iters = 200
	for i := 0; i < iters; i++ {
		req := SubmitRequest{Circuit: strings.Replace(cktText, "circuit invchain", fmt.Sprintf("circuit invchain%d", i), 1)}
		sub, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := svc.Wait(ctx, sub.Job.ID); err != nil || st.State != Done {
			t.Fatalf("iter %d: err=%v state=%s (%s)", i, err, st.State, st.Error)
		}
		again, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Fatalf("iter %d: resubmission right after Wait was not a cache hit (deduped=%v)", i, again.Deduped)
		}
	}
}
