package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lvf2/internal/checkpoint"
	"lvf2/internal/faultinject"
	"lvf2/internal/mc"
)

// Distributed chaos harness. Each seed expands deterministically into a
// schedule of worker kills and coordinator crash-restarts, run over a
// fleet whose HTTP transport injects seeded network faults (requests
// erroring before delivery, responses dropped after delivery — the
// duplicate generator — corrupt and truncated bodies, stalls). The
// fleet keeps being refilled until the build drains. Invariants:
//
//   - the library assembled from the surviving journal is bit-identical
//     to a single-process build,
//   - no unit is ever journaled terminal twice (idempotent completion),
//   - the run terminates: leases expire, workers respawn, the
//     coordinator restarts from the journal alone.
//
// On failure the expanded script, the journal segments and the
// coordinator/worker logs are written under CHAOS_ARTIFACT_DIR (or the
// system temp dir) for replay with -distchaos.seed.
var (
	distChaosSeeds = flag.Int("distchaos.seeds", 2, "how many randomized kill schedules TestChaosDistributedBuild replays")
	distChaosSeed  = flag.Int64("distchaos.seed", 0, "replay only this chaos seed (0 = run -distchaos.seeds schedules)")
)

type distChaosStep struct {
	Op     string `json:"op"` // spawn, kill, coordinator-restart, done
	Worker string `json:"worker,omitempty"`
	AtMs   int64  `json:"at_ms,omitempty"`
	Note   string `json:"note,omitempty"`
}

type distChaosScript struct {
	Seed     uint64          `json:"seed"`
	Steps    []distChaosStep `json:"steps"`
	Injected int64           `json:"net_faults_injected"`
}

// distChaosGolden is the uninterrupted single-process reference,
// computed once per test binary (the build config is constant).
var distChaosGolden struct {
	once sync.Once
	lib  []byte
}

// syncLog is a concurrency-safe log sink preserved as a failure
// artifact.
type syncLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *syncLog) Bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.buf.Bytes()...)
}

func TestChaosDistributedBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not -short")
	}
	seeds := make([]uint64, 0, *distChaosSeeds)
	if *distChaosSeed != 0 {
		seeds = append(seeds, uint64(*distChaosSeed))
	} else {
		for i := 0; i < *distChaosSeeds; i++ {
			seeds = append(seeds, uint64(7000+17*i))
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDistChaos(t, seed)
		})
	}
}

func runDistChaos(t *testing.T, seed uint64) {
	distChaosGolden.once.Do(func() {
		goldenFS := faultinject.NewMemFS()
		cfg := testBuild(openJournal(t, goldenFS, "golden", testBuild(nil).Fingerprint()))
		distChaosGolden.lib = singleProcessLib(t, cfg)
	})
	golden := distChaosGolden.lib

	script := &distChaosScript{Seed: seed}
	logs := &syncLog{}
	fsys := faultinject.NewMemFS()
	start := time.Now()
	var scriptMu sync.Mutex
	step := func(s distChaosStep) {
		scriptMu.Lock()
		s.AtMs = time.Since(start).Milliseconds()
		script.Steps = append(script.Steps, s)
		scriptMu.Unlock()
	}
	defer func() {
		if !t.Failed() {
			return
		}
		dir := os.Getenv("CHAOS_ARTIFACT_DIR")
		if dir == "" {
			dir = os.TempDir()
		}
		_ = os.MkdirAll(dir, 0o755)
		b, _ := json.MarshalIndent(script, "", "  ")
		path := filepath.Join(dir, fmt.Sprintf("dist-chaos-failure-seed-%d.json", seed))
		if err := os.WriteFile(path, b, 0o644); err == nil {
			t.Logf("chaos: failing script written to %s (replay with -distchaos.seed=%d)", path, seed)
		}
		logPath := filepath.Join(dir, fmt.Sprintf("dist-chaos-seed-%d.log", seed))
		if err := os.WriteFile(logPath, logs.Bytes(), 0o644); err == nil {
			t.Logf("chaos: coordinator/worker logs preserved as %s", logPath)
		}
		for _, p := range fsys.Paths() {
			seg, err := fsys.ReadFile(p)
			if err != nil {
				continue
			}
			out := filepath.Join(dir, fmt.Sprintf("dist-chaos-seed-%d-%s", seed, filepath.Base(p)))
			if err := os.WriteFile(out, seg, 0o644); err == nil {
				t.Logf("chaos: journal segment preserved as %s", out)
			}
		}
	}()

	rng := mc.NewRNG(seed)
	fp := testBuild(nil).Fingerprint()

	// The coordinator behind a swappable handler, so a "crash-restart"
	// keeps the fleet's URL stable while every piece of soft state —
	// leases, death counts, worker registry — is discarded and rebuilt
	// from the journal.
	var coordMu sync.Mutex
	var coord *Coordinator
	var coordHandler http.Handler // built once per coordinator: Handler registers its routes' metrics
	var journal *checkpoint.Journal
	newCoordinator := func() {
		coordMu.Lock()
		defer coordMu.Unlock()
		if journal != nil {
			journal.Close() // flush; a real crash would lose the unsealed tail instead
		}
		journal = openJournal(t, fsys, "ckpt", fp)
		cfg := testBuild(journal)
		c, err := NewCoordinator(CoordinatorConfig{
			Build:    cfg,
			LeaseTTL: 250 * time.Millisecond,
			PollWait: 10 * time.Millisecond,
			// Environmental deaths must never condemn a unit in this
			// suite: quarantine notes would (correctly) change the
			// emitted library, which is exactly what the bit-identical
			// assertion forbids for a fault-free unit.
			DeathBudget: 1 << 20,
			Log:         logs,
		})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		coord, coordHandler = c, c.Handler()
	}
	current := func() *Coordinator {
		coordMu.Lock()
		defer coordMu.Unlock()
		return coord
	}
	newCoordinator()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		coordMu.Lock()
		h := coordHandler
		coordMu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	// The fleet: three slots, each slot refilled with a fresh worker
	// (new ID, new seeded fault transport) whenever its occupant exits
	// or is killed.
	faults := faultinject.NetFaults{
		PErrBefore:   0.05,
		PDropAfter:   0.05, // the duplicate-submission generator
		PCorruptBody: 0.03,
		PShortBody:   0.03,
		PStall:       0.02,
		Stall:        50 * time.Millisecond,
	}
	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	const slots = 3
	type slot struct {
		cancel context.CancelFunc
		exited chan struct{}
		id     string
	}
	var (
		slotMu     sync.Mutex
		live       [slots]*slot
		gen        int
		transports []*faultinject.FaultTransport
	)
	spawn := func(i int) {
		slotMu.Lock()
		defer slotMu.Unlock()
		gen++
		id := fmt.Sprintf("w%d-g%d", i, gen)
		ft := faultinject.NewFaultTransport(nil, faults, seed^uint64(gen)*0x9e3779b97f4a7c15)
		transports = append(transports, ft)
		wctx, cancel := context.WithCancel(ctx)
		s := &slot{cancel: cancel, exited: make(chan struct{}), id: id}
		live[i] = s
		step(distChaosStep{Op: "spawn", Worker: id})
		go func() {
			defer close(s.exited)
			err := RunWorker(wctx, WorkerConfig{
				ID:      id,
				URL:     srv.URL,
				Client:  &http.Client{Transport: ft},
				Backoff: 20 * time.Millisecond,
				Log:     logs,
			})
			fmt.Fprintf(logs, "chaos: worker %s exited: %v\n", id, err)
		}()
	}
	for i := 0; i < slots; i++ {
		spawn(i)
	}

	// The chaos schedule: every 30–130ms, kill a random worker, restart
	// the coordinator, or do nothing; always refill empty slots.
	deadline := time.After(60 * time.Second)
	for !current().Done() {
		select {
		case <-deadline:
			t.Fatal("chaos: build did not drain within 60s")
		case <-time.After(time.Duration(30+rng.Uint64()%100) * time.Millisecond):
		}
		switch rng.Uint64() % 5 {
		case 0, 1: // kill a worker (no goodbye: its lease must expire)
			i := int(rng.Uint64() % slots)
			slotMu.Lock()
			s := live[i]
			slotMu.Unlock()
			if s != nil {
				step(distChaosStep{Op: "kill", Worker: s.id})
				s.cancel()
			}
		case 2: // coordinator crash-restart
			step(distChaosStep{Op: "coordinator-restart"})
			newCoordinator()
		}
		for i := 0; i < slots; i++ {
			slotMu.Lock()
			s := live[i]
			slotMu.Unlock()
			if s == nil {
				continue
			}
			select {
			case <-s.exited:
				spawn(i)
			default:
			}
		}
	}
	step(distChaosStep{Op: "done"})
	cancelAll()
	slotMu.Lock()
	for _, s := range live {
		if s != nil {
			<-s.exited
		}
	}
	for _, ft := range transports {
		script.Injected += ft.Injected()
	}
	slotMu.Unlock()

	// Final assembly from the journal alone must restore all 32 units
	// and match the single-process golden bit for bit.
	coordMu.Lock()
	journal.Close()
	journal = nil
	coordMu.Unlock()
	j := openJournal(t, fsys, "ckpt", fp)
	libBytes, stats := assembleLib(t, testBuild(j))
	j.Close()
	if stats.Restored != stats.Units || stats.Units != 32 {
		t.Errorf("assembly restored %d/%d units, want 32/32", stats.Restored, stats.Units)
	}
	if stats.Quarantined != 0 {
		t.Errorf("chaos run quarantined %d units; environmental faults must not condemn units", stats.Quarantined)
	}
	if !bytes.Equal(libBytes, golden) {
		t.Errorf("chaos library differs from single-process golden (%d vs %d bytes)", len(libBytes), len(golden))
	}
	assertOneTerminalPerKey(t, fsys, "ckpt", fp)
	t.Logf("chaos seed %d: %d schedule steps, %d net faults injected", seed, len(script.Steps), script.Injected)
}
