package netlist

import (
	"fmt"

	"repro/internal/geom"
)

// Builder constructs a Design incrementally. The synthetic benchmark
// generator, the clusterer and the unit tests use it; Connect records pins
// and Build links the cell/net/pin cross-references once (LinkPins).
type Builder struct {
	d Design
}

// NewBuilder starts a design with the given name and die rectangle.
func NewBuilder(name string, die geom.Rect, rowHeight, siteWidth float64) *Builder {
	return &Builder{d: Design{
		Name:          name,
		Die:           die,
		RowHeight:     rowHeight,
		SiteWidth:     siteWidth,
		RouteLayers:   4,
		RouteCapScale: 1.0,
		TargetDensity: 0.9,
	}}
}

// AddCell appends a cell and returns its index.
func (b *Builder) AddCell(name string, kind CellKind, x, y, w, h float64) int {
	b.d.Cells = append(b.d.Cells, Cell{Name: name, Kind: kind, X: x, Y: y, W: w, H: h})
	return len(b.d.Cells) - 1
}

// AddNet appends an empty net and returns its index.
func (b *Builder) AddNet(name string, weight float64) int {
	b.d.Nets = append(b.d.Nets, Net{Name: name, Weight: weight})
	return len(b.d.Nets) - 1
}

// Connect attaches a new pin on cell to net with the given offsets from the
// cell center, and returns the pin index. The cell's and net's pin lists
// are filled in by Build.
func (b *Builder) Connect(cell, net int, offX, offY float64) int {
	if cell < 0 || cell >= len(b.d.Cells) {
		panic(fmt.Sprintf("netlist: Connect to bad cell %d", cell))
	}
	if net < 0 || net >= len(b.d.Nets) {
		panic(fmt.Sprintf("netlist: Connect to bad net %d", net))
	}
	b.d.Pins = append(b.d.Pins, Pin{Cell: cell, Net: net, OffX: offX, OffY: offY})
	return len(b.d.Pins) - 1
}

// AddRail appends a PG rail.
func (b *Builder) AddRail(seg geom.Segment, width float64) {
	b.d.Rails = append(b.d.Rails, PGRail{Seg: seg, Width: width})
}

// SetRouteLayers overrides the default routing layer count.
func (b *Builder) SetRouteLayers(n int) { b.d.RouteLayers = n }

// SetRouteCapScale overrides the routing capacity scale factor.
func (b *Builder) SetRouteCapScale(s float64) { b.d.RouteCapScale = s }

// SetTargetDensity overrides the default bin density bound.
func (b *Builder) SetTargetDensity(td float64) { b.d.TargetDensity = td }

// Build links the pin lists, validates the design and returns it.
func (b *Builder) Build() (*Design, error) {
	b.d.LinkPins()
	if err := b.d.Validate(); err != nil {
		return nil, err
	}
	d := b.d
	return &d, nil
}

// MustBuild is Build for tests and generators with known-good inputs.
func (b *Builder) MustBuild() *Design {
	d, err := b.Build()
	if err != nil {
		panic(err)
	}
	return d
}

// LinkPins sets every cell's and net's pin list from d.Pins, in pin order,
// and every cell's NumPins. The lists are windows of two arenas, one for
// cells and one for nets, rather than one growing slice each. A cell or
// net without pins gets a nil list, and each list's capacity equals its
// length: appending to one copies it rather than overwrite its
// neighbour's pins. Every pin's Cell and Net must be in range.
func (d *Design) LinkPins() {
	cells := groupPins(d.Pins, len(d.Cells), func(p *Pin) int { return p.Cell })
	for i := range d.Cells {
		d.Cells[i].Pins = cells(i)
		d.Cells[i].NumPins = len(d.Cells[i].Pins)
	}
	nets := groupPins(d.Pins, len(d.Nets), func(p *Pin) int { return p.Net })
	for i := range d.Nets {
		d.Nets[i].Pins = nets(i)
	}
}

// groupPins sorts the pin indices by owner with a counting sort, keeping pin
// order within an owner, and returns the accessor for owner o's list.
func groupPins(pins []Pin, owners int, owner func(*Pin) int) func(o int) []int {
	// at[o] counts owner o's pins, then holds the end of its block, and
	// after the backward fill holds its start.
	at := make([]int, owners)
	for i := range pins {
		at[owner(&pins[i])]++
	}
	end := 0
	for o := range at {
		end += at[o]
		at[o] = end
	}
	arena := make([]int, len(pins))
	for p := len(pins) - 1; p >= 0; p-- {
		o := owner(&pins[p])
		at[o]--
		arena[at[o]] = p
	}
	return func(o int) []int {
		lo, hi := at[o], len(pins)
		if o+1 < owners {
			hi = at[o+1]
		}
		if lo == hi {
			return nil
		}
		return arena[lo:hi:hi]
	}
}
