package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/fit"
	"lvf2/internal/libbuild"
	"lvf2/internal/liberty"
)

// The libgen workload builds the fixture's library: 4 cell types (two
// of them two-input, so 6 arcs), a stride-2 grid (16 points) and 1500
// MC samples per distribution.
const (
	libgenSamples = 1500
	libgenStride  = 2
	libgenSeed    = 1
)

// libgenBuilds is the fixed number of timed builds in a run.
func libgenBuilds(seconds int) int { return max(3, seconds/4) }

func libgenArgs(cellList string, stride int, ckpt, out string) []string {
	return []string{"-cells", cellList, "-arcs", "1", "-samples", strconv.Itoa(libgenSamples),
		"-stride", strconv.Itoa(stride), "-seed", strconv.Itoa(libgenSeed), "-format", "lvf2",
		"-checkpoint", ckpt, "-o", out}
}

// build is one finished libgen process.
type build struct {
	wall, cpu time.Duration
	rssMB     float64
	stderr    string
	out       []byte
	ckpt      string
}

// runLibgenOnce runs libgen into a fresh checkpoint directory and output
// file and returns its wall time and the kernel's accounting of it.
func runLibgenOnce(e *env, name, cellList string, stride int) (build, error) {
	ckpt := filepath.Join(e.work, name+"-ckpt")
	out := filepath.Join(e.work, name+".lib")
	cmd := exec.Command(filepath.Join(binDir, "libgen"), libgenArgs(cellList, stride, ckpt, out)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err := cmd.Run()
	b := build{wall: time.Since(t0), stderr: stderr.String(), ckpt: ckpt}
	if err != nil {
		return b, fmt.Errorf("libgen %s: %w: %s", name, err, lastLine(b.stderr))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		b.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		b.rssMB = float64(ru.Maxrss) / 1024 // kB on Linux
	}
	b.out, err = os.ReadFile(out)
	return b, err
}

// lint runs liblint on an emitted library.
func lint(e *env, path string) error {
	out, err := exec.Command(filepath.Join(binDir, "liblint"), path).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "clean") {
		return fmt.Errorf("liblint %s: %v: %s", path, err, lastLine(string(out)))
	}
	return nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

func runLibgen(e *env) (*report, error) {
	fx, err := loadFixture(fixturePath)
	if err != nil {
		return nil, err
	}
	nCells := len(strings.Split(fixtureCells, ","))
	rep := &report{}

	// Set-up: everything before the first timed build. A one-point
	// build exercises the binary, the journal directory and the
	// emitter once, so the timed builds start from a warm page cache.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		b, err := runLibgenOnce(e, fmt.Sprintf("setup%d", i), "INV", 8)
		if err != nil {
			return nil, err
		}
		setups = append(setups, b.wall.Seconds())
	}
	rep.add("setup_s", median(setups), "s", len(setups))

	n := libgenBuilds(e.seconds)
	var tr *tracer
	if e.trace {
		n = 2 // one untraced build, then one traced build
		tr = newTracer()
	}
	var builds []build
	var walls []float64
	var cpu, wall, client time.Duration
	for i := 0; i < n; i++ {
		rep.attempted++
		name := fmt.Sprintf("build%d", i)
		var b build
		self0 := selfCPU()
		run := func() {
			if b, err = runLibgenOnce(e, name, fixtureCells, libgenStride); err == nil {
				err = lint(e, filepath.Join(e.work, name+".lib"))
			}
		}
		if tr != nil && i == 1 {
			tr.timed("libgen.build", 0, i, run)
		} else {
			run()
		}
		client += selfCPU() - self0
		if err == nil && len(builds) > 0 && !bytes.Equal(b.out, builds[0].out) {
			err = fmt.Errorf("build %d differs from build 0", i)
		}
		if err != nil {
			rep.fail("%v", err)
			continue
		}
		builds = append(builds, b)
		walls = append(walls, ms(b.wall))
		cpu += b.cpu
		wall += b.wall
	}
	if len(builds) == 0 {
		return rep, nil
	}
	ops := float64(nCells * len(builds))
	rep.add("ops_per_s", ops/wall.Seconds(), "1/s", len(builds))
	rep.add("p50_ms", median(walls), "ms", len(walls))
	rep.add("cpu_ms_per_op", ms(cpu)/ops, "ms", len(builds))
	var rss []float64
	for _, b := range builds {
		rss = append(rss, b.rssMB)
	}
	rep.add("rss_mb", median(rss), "MB", len(rss))
	rep.add("client.cpu_ms_per_op", ms(client)/ops, "ms", len(builds))
	if err := verifyEmitted(rep, fx, string(builds[0].out)); err != nil {
		return nil, err
	}
	if tr != nil && len(builds) == 2 {
		rep.add("trace.overhead", 1-builds[0].wall.Seconds()/builds[1].wall.Seconds(), "frac", 2)
		if err := replayLibgen(e, rep, tr, fx, builds[0]); err != nil {
			return nil, err
		}
		if err := tr.write(e, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

var (
	warmRe     = regexp.MustCompile(`warm-start: (\d+) seeded fit\(s\) accepted, (\d+) rejected`)
	fallbackRe = regexp.MustCompile(`(\d+) fit\(s\) fell back`)
)

// replayLibgen fills the libgen layers: fit outcome counts from libgen's
// stderr summary, the journal's size, the pool's parallel efficiency,
// and timed in-process calls into libbuild, cells, fit and liberty.
func replayLibgen(e *env, rep *report, tr *tracer, fx *fixture, b build) error {
	atoi := func(s string) float64 { v, _ := strconv.Atoi(s); return float64(v) }
	if m := warmRe.FindStringSubmatch(b.stderr); m != nil {
		rep.add("fit.warm_hits", atoi(m[1]), "count", 1)
		rep.add("fit.warm_rejected", atoi(m[2]), "count", 1)
	}
	fallbacks := 0.0
	if m := fallbackRe.FindStringSubmatch(b.stderr); m != nil {
		fallbacks = atoi(m[1])
	}
	rep.add("fit.fallbacks", fallbacks, "count", 1)
	var bytesOnDisk int64
	err := filepath.WalkDir(b.ckpt, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			bytesOnDisk += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.add("checkpoint.bytes", float64(bytesOnDisk), "count", 1)
	rep.add("pool.parallel_eff", b.cpu.Seconds()/(b.wall.Seconds()*float64(runtime.NumCPU())), "frac", 1)
	rep.add("proc.servers_started", 0, "count", 1)
	parseLibrary(rep, tr, fx)

	// In-process builds, without and with a journal: their difference
	// prices the checkpoint layer. The unjournaled build must emit the
	// same bytes as the libgen binary.
	var types []cells.CellType
	for _, name := range strings.Split(fixtureCells, ",") {
		ct, _ := cells.CellByName(name)
		types = append(types, ct)
	}
	cfg := libbuild.Config{Types: types, ArcsPer: 1, LVF2: true,
		Char: cells.CharConfig{Samples: libgenSamples, Seed: libgenSeed, GridStride: libgenStride}}
	root := tr.begin("replay.libgen", 0, 0)
	var lib *liberty.Group
	plain := tr.timed("libbuild.build", root, 0, func() { lib, _, err = libbuild.Build(context.Background(), cfg) })
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	var writes []float64
	for i := 0; i < 3; i++ {
		buf.Reset()
		writes = append(writes, ms(tr.timed("liberty.write", root, 0, func() { err = liberty.WriteLibrary(&buf, lib) })))
		if err != nil {
			return err
		}
	}
	if !bytes.Equal(buf.Bytes(), b.out) {
		return fmt.Errorf("in-process build differs from the libgen binary's output")
	}
	dir := filepath.Join(e.work, "inproc-ckpt")
	if err := checkpoint.Reset(checkpoint.OSFS{}, dir); err != nil {
		return err
	}
	j, err := checkpoint.Open(checkpoint.OSFS{}, dir, cfg.Fingerprint(), checkpoint.Options{})
	if err != nil {
		return err
	}
	cfg.Journal = j
	journaled := tr.timed("libbuild.build_journaled", root, 0, func() { _, _, err = libbuild.Build(context.Background(), cfg) })
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rep.add("libbuild.build_ms", ms(plain), "ms", 1)
	rep.add("checkpoint.journal_ms", ms(journaled-plain), "ms", 1)
	rep.add("liberty.write_ms", median(writes), "ms", len(writes))

	// Characterisation per arc, and cold LVF² fits plus validation of
	// the first arc's distributions.
	var chars, fits, validates []float64
	var dists []cells.Distribution
	for _, ct := range types {
		for _, arc := range ct.Arcs()[:max(1, ct.Inputs)] {
			var ds []cells.Distribution
			chars = append(chars, ms(tr.timed("cells.characterize", root, 0, func() { ds = cells.CharacterizeArc(cfg.Char, arc) })))
			if dists == nil {
				dists = ds
			}
		}
	}
	rep.add("cells.characterize_ms", median(chars), "ms", len(chars))
	for _, d := range dists[:min(8, len(dists))] {
		var r fit.LVF2Result
		fits = append(fits, ms(tr.timed("fit.lvf2", root, 0, func() { r, err = fit.FitLVF2(d.Samples, fit.Options{}) })))
		if err != nil {
			continue // a degenerate point: libgen's ladder falls back; time the rest
		}
		validates = append(validates, ms(tr.timed("fit.validate", root, 0, func() { _ = fit.ValidateResult(r.Result(), d.Samples, fit.Options{}) })))
	}
	tr.end(root)
	rep.add("fit.lvf2_ms", median(fits), "ms", len(fits))
	rep.add("fit.validate_ms", median(validates), "ms", len(validates))
	return nil
}
