package live

import (
	"strings"
	"testing"

	"mobickpt/internal/check"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
	"mobickpt/internal/trace"
)

func loggedConfig(mode mlog.Mode) Config {
	cfg := DefaultConfig()
	cfg.LogMode = mode
	return cfg
}

func TestValidateLogConfig(t *testing.T) {
	c := DefaultConfig()
	c.LogMode = mlog.Mode(42)
	if c.Validate() == nil {
		t.Fatal("unknown LogMode accepted")
	}
	c = DefaultConfig()
	c.LogFlushBatch = -1
	if c.Validate() == nil {
		t.Fatal("negative LogFlushBatch accepted")
	}
}

// Every delivery of a logged live run must reconcile against the MSS
// log, and the hand-off transfers must survive the wire.
func TestLiveLoggingReconciles(t *testing.T) {
	for _, mode := range []mlog.Mode{mlog.Pessimistic, mlog.Optimistic} {
		t.Run(mode.String(), func(t *testing.T) {
			c := runCluster(t, loggedConfig(mode), "QBC")
			got := c.Counters()
			lg := c.MLog()
			if lg == nil {
				t.Fatal("no log")
			}
			if lg.Counters().Appended != got.Delivered {
				t.Fatalf("logged %d entries, delivered %d", lg.Counters().Appended, got.Delivered)
			}
			if got.Switches > 0 && got.LogFrameBytes == 0 {
				t.Fatalf("hosts switched %d times but no log transfer crossed the wire", got.Switches)
			}
			if got.DecodeErrors != 0 {
				t.Fatalf("%d log-transfer frames failed to decode", got.DecodeErrors)
			}
			if vs := check.LogReconciliation("live", lg, c.Trace(), len(c.states)); len(vs) != 0 {
				t.Fatalf("log reconciliation: %v", vs)
			}
		})
	}
}

// Replay-aware recovery on a live run: the cut has no unlogged orphans,
// rolled-back hosts replay their logged suffixes, and with pessimistic
// logging the rollback never propagates beyond the failed host.
func TestLiveRecoverReplays(t *testing.T) {
	c := runCluster(t, loggedConfig(mlog.Pessimistic), "QBC")
	rep, err := c.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	logged := func(ev trace.MessageEvent, seq int) bool {
		return seq < c.MLog().StableBound(ev.To)
	}
	if o := recovery.UnloggedOrphans(c.Trace(), rep.Cut, logged); o != 0 {
		t.Fatalf("executed cut has %d unlogged orphans", o)
	}
	// Pessimistic logging stably logs every delivery: no receive is
	// orphan-producing, so only the failed host rolls back.
	if rb := rep.Cut.RolledBack(); rb != 1 {
		t.Fatalf("%d hosts rolled back under pessimistic logging, want 1", rb)
	}
	if rep.Replayed[0] != rep.ReplayedMessages {
		t.Fatalf("replay bookkeeping: %+v", rep)
	}
	// The failed host's replayable suffix is exactly what the log holds
	// past the restored checkpoint.
	want := len(c.MLog().ReplayFrom(0, rep.Restored[0]))
	if rep.Replayed[0] != want {
		t.Fatalf("replayed %d messages, log holds %d", rep.Replayed[0], want)
	}
}

func TestLiveRecoverOptimisticReplays(t *testing.T) {
	cfg := loggedConfig(mlog.Optimistic)
	cfg.LogFlushBatch = 4
	c := runCluster(t, cfg, "BCS")
	rep, err := c.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	if recovery.Orphans(c.Trace(), rep.Cut) != 0 && c.MLog() == nil {
		t.Fatal("inconsistent cut")
	}
	for h, n := range rep.Replayed {
		if n < 0 || rep.Restored[h] == 0 && n > c.MLog().AppendedCount(h) {
			t.Fatalf("host %d replayed %d entries", h, n)
		}
	}
}

// Recover on a cluster that never ran: the failed host has no stable
// checkpoint image, and the error must say so instead of panicking.
func TestLiveRecoverNoStableCheckpoint(t *testing.T) {
	c, err := NewCluster(DefaultConfig(), "QBC")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Recover(0)
	if err == nil {
		t.Fatal("Recover on an empty cluster succeeded")
	}
	if !strings.Contains(err.Error(), "host 0") {
		t.Fatalf("error does not identify the host: %v", err)
	}
}

func TestLiveRecoverOutOfRangeHost(t *testing.T) {
	c := runCluster(t, DefaultConfig(), "BCS")
	for _, h := range []mobile.HostID{-1, 99} {
		if _, err := c.Recover(h); err == nil {
			t.Fatalf("Recover(%d) succeeded", h)
		}
	}
}

// A corrupted stable image must surface both through VerifyImages (with
// the failing host identified) and through Recover when the rollback
// needs that image.
func TestLiveVerifyImagesReportsCorruption(t *testing.T) {
	c := runCluster(t, DefaultConfig(), "QBC")
	if _, err := c.VerifyImages(); err != nil {
		t.Fatalf("images corrupt before tampering: %v", err)
	}
	im, _, err := c.group.FindImage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	im.Data[0] ^= 0xff
	checked, err := c.VerifyImages()
	if err == nil {
		t.Fatal("VerifyImages accepted a corrupted image")
	}
	if !strings.Contains(err.Error(), "host 0") {
		t.Fatalf("error does not identify the image: %v", err)
	}
	if checked != 0 {
		t.Fatalf("corruption of host 0 seq 0 detected after %d other images", checked)
	}
	// Recovery needing the corrupted image fails with the same cause.
	cut := recovery.FailureCut(c.store, len(c.states), 0)
	if cut[0] == 0 {
		if _, err := c.Recover(0); err == nil {
			t.Fatal("Recover restored a corrupted image")
		}
	}
	im.Data[0] ^= 0xff // restore for any later checks
}

// Image divergence after replay-aware recovery: the re-baselined images
// written during Recover must themselves verify.
func TestLiveImagesVerifyAfterReplayRecovery(t *testing.T) {
	c := runCluster(t, loggedConfig(mlog.Pessimistic), "QBC")
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	checked, err := c.VerifyImages()
	if err != nil {
		t.Fatalf("images diverged after recovery: %v", err)
	}
	if checked == 0 {
		t.Fatal("nothing verified")
	}
}
