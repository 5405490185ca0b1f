package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"os"
	"sort"
	"strconv"

	"lvf2/internal/liberty"
)

// The fixture is libgen's output for the libgen workload's build
// (-cells INV,BUFF,NAND2,NOR2 -arcs 1 -samples 1500 -stride 2 -seed 1),
// generated once and kept in perfbench/fixture so that a fitter change
// moves only the libgen numbers, never the serving ones.
const fixtureCells = "INV,BUFF,NAND2,NOR2"

// arcKey addresses one served model: an arc of the fixture, a table
// base, a query point and a model kind.
type arcKey struct {
	cell, out, from, base string
	slew, load            float64
	kind                  string
}

// query is the /v1/arc/* and GET /v1/yield query string of the key.
func (k arcKey) query() string {
	v := url.Values{}
	v.Set("lib", "fx")
	v.Set("cell", k.cell)
	v.Set("out", k.out)
	v.Set("from", k.from)
	v.Set("base", k.base)
	v.Set("slew", strconv.FormatFloat(k.slew, 'g', -1, 64))
	v.Set("load", strconv.FormatFloat(k.load, 'g', -1, 64))
	v.Set("kind", k.kind)
	return v.Encode()
}

// fixtureArc is one timing table of the fixture with its grid.
type fixtureArc struct {
	cell, out, from, base string
	slews, loads          []float64
	tm                    *liberty.TimingModel
}

// fixture is the parsed serving library.
type fixture struct {
	text string
	lib  *liberty.Library
	arcs []fixtureArc // sorted by cell, output pin, related pin, base
}

func loadFixture(path string) (*fixture, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := liberty.Parse(string(b))
	if err != nil {
		return nil, fmt.Errorf("parse fixture: %w", err)
	}
	lib, err := liberty.LoadLibrary(g)
	if err != nil {
		return nil, fmt.Errorf("load fixture: %w", err)
	}
	fx := &fixture{text: string(b), lib: lib}
	for _, c := range lib.Cells {
		for _, p := range c.OutputPins() {
			for _, a := range p.Timings {
				for base, tm := range a.Tables {
					fx.arcs = append(fx.arcs, fixtureArc{
						cell: c.Name, out: p.Name, from: a.RelatedPin, base: base,
						slews: tm.Nominal.Index1, loads: tm.Nominal.Index2, tm: tm,
					})
				}
			}
		}
	}
	sort.Slice(fx.arcs, func(i, j int) bool {
		a, b := fx.arcs[i], fx.arcs[j]
		if a.cell != b.cell {
			return a.cell < b.cell
		}
		if a.out != b.out {
			return a.out < b.out
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.base < b.base
	})
	if len(fx.arcs) == 0 {
		return nil, fmt.Errorf("fixture %s has no timing tables", path)
	}
	return fx, nil
}

// gridKeys enumerates every on-grid lvf and lvf2 key of the fixture in
// a fixed order: the serve-warm and serve-fleet working set.
func (fx *fixture) gridKeys() []arcKey {
	var keys []arcKey
	for _, a := range fx.arcs {
		for _, s := range a.slews {
			for _, l := range a.loads {
				for _, kind := range []string{"lvf", "lvf2"} {
					keys = append(keys, arcKey{a.cell, a.out, a.from, a.base, s, l, kind})
				}
			}
		}
	}
	return keys
}

// offGridKey draws a key at a random point inside the fixture's grid,
// rounded to five significant digits so the query string is short.
func (fx *fixture) offGridKey(rng *rand.Rand, kind string) arcKey {
	a := fx.arcs[rng.IntN(len(fx.arcs))]
	logUniform := func(lo, hi float64) float64 {
		v := math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
		f, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 5, 64), 64)
		return f
	}
	return arcKey{a.cell, a.out, a.from, a.base,
		logUniform(a.slews[0], a.slews[len(a.slews)-1]),
		logUniform(a.loads[0], a.loads[len(a.loads)-1]), kind}
}
