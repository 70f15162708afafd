package designio

// The reference implementations Write and Read are held to: the format's
// reader and writer as they were before they split lines in place and
// appended numbers with strconv. Only the tests call them.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// writeFmt is Write as it was written with fmt, the reference for Write's
// bytes. It shares Write's escape.
func writeFmt(w io.Writer, d *netlist.Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nmplace design file\n")
	fmt.Fprintf(bw, "design %s\n", escape(d.Name))
	fmt.Fprintf(bw, "die %g %g %g %g\n", d.Die.Lo.X, d.Die.Lo.Y, d.Die.Hi.X, d.Die.Hi.Y)
	fmt.Fprintf(bw, "row %g %g\n", d.RowHeight, d.SiteWidth)
	fmt.Fprintf(bw, "route %d %g\n", d.RouteLayers, d.RouteCapScale)
	fmt.Fprintf(bw, "density %g\n", d.TargetDensity)
	for i := range d.Cells {
		c := &d.Cells[i]
		fmt.Fprintf(bw, "cell %s %s %g %g %g %g\n",
			escape(c.Name), c.Kind.String(), c.X, c.Y, c.W, c.H)
	}
	for i := range d.Nets {
		n := &d.Nets[i]
		fmt.Fprintf(bw, "net %s %g\n", escape(n.Name), n.Weight)
	}
	for i := range d.Pins {
		p := &d.Pins[i]
		fmt.Fprintf(bw, "pin %d %d %g %g\n", p.Cell, p.Net, p.OffX, p.OffY)
	}
	for _, r := range d.Rails {
		fmt.Fprintf(bw, "rail %g %g %g %g %g\n",
			r.Seg.A.X, r.Seg.A.Y, r.Seg.B.X, r.Seg.B.Y, r.Width)
	}
	return bw.Flush()
}

// readFields is Read as it was written with strings.Fields, the reference
// for Read's designs and errors.
func readFields(r io.Reader) (*netlist.Design, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	d := &netlist.Design{RouteLayers: 4, RouteCapScale: 1, TargetDensity: 0.9}
	lineNo := 0
	sawDie := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		var err error
		switch f[0] {
		case "design":
			if len(f) != 2 {
				err = fmt.Errorf("design wants 1 field")
			} else {
				d.Name = f[1]
			}
		case "die":
			var v [4]float64
			if v, err = floats4Ref(f[1:]); err == nil {
				d.Die = geom.NewRect(v[0], v[1], v[2], v[3])
				sawDie = true
			}
		case "row":
			if len(f) != 3 {
				err = fmt.Errorf("row wants 2 fields")
				break
			}
			if d.RowHeight, err = parseFiniteRef(f[1]); err == nil {
				d.SiteWidth, err = parseFiniteRef(f[2])
			}
		case "route":
			if len(f) != 3 {
				err = fmt.Errorf("route wants 2 fields")
				break
			}
			if d.RouteLayers, err = strconv.Atoi(f[1]); err == nil {
				d.RouteCapScale, err = parseFiniteRef(f[2])
			}
		case "density":
			if len(f) != 2 {
				err = fmt.Errorf("density wants 1 field")
				break
			}
			d.TargetDensity, err = parseFiniteRef(f[1])
		case "cell":
			if len(f) != 7 {
				err = fmt.Errorf("cell wants 6 fields")
				break
			}
			var kind netlist.CellKind
			if kind, err = parseKindRef(f[2]); err != nil {
				break
			}
			var v [4]float64
			if v, err = floats4Ref(f[3:]); err != nil {
				break
			}
			d.Cells = append(d.Cells, netlist.Cell{
				Name: f[1], Kind: kind, X: v[0], Y: v[1], W: v[2], H: v[3],
			})
		case "net":
			if len(f) != 3 {
				err = fmt.Errorf("net wants 2 fields")
				break
			}
			var wgt float64
			if wgt, err = parseFiniteRef(f[2]); err != nil {
				break
			}
			d.Nets = append(d.Nets, netlist.Net{Name: f[1], Weight: wgt})
		case "pin":
			if len(f) != 5 {
				err = fmt.Errorf("pin wants 4 fields")
				break
			}
			var ci, ni int
			if ci, err = strconv.Atoi(f[1]); err != nil {
				break
			}
			if ni, err = strconv.Atoi(f[2]); err != nil {
				break
			}
			var ox, oy float64
			if ox, err = parseFiniteRef(f[3]); err != nil {
				break
			}
			if oy, err = parseFiniteRef(f[4]); err != nil {
				break
			}
			if ci < 0 || ci >= len(d.Cells) {
				err = fmt.Errorf("pin references cell %d of %d", ci, len(d.Cells))
				break
			}
			if ni < 0 || ni >= len(d.Nets) {
				err = fmt.Errorf("pin references net %d of %d", ni, len(d.Nets))
				break
			}
			pi := len(d.Pins)
			d.Pins = append(d.Pins, netlist.Pin{Cell: ci, Net: ni, OffX: ox, OffY: oy})
			d.Cells[ci].Pins = append(d.Cells[ci].Pins, pi)
			d.Nets[ni].Pins = append(d.Nets[ni].Pins, pi)
		case "rail":
			if len(f) != 6 {
				err = fmt.Errorf("rail wants 5 fields")
				break
			}
			var v [4]float64
			if v, err = floats4Ref(f[1:5]); err != nil {
				break
			}
			var width float64
			if width, err = parseFiniteRef(f[5]); err != nil {
				break
			}
			d.Rails = append(d.Rails, netlist.PGRail{
				Seg:   geom.Segment{A: geom.Point{X: v[0], Y: v[1]}, B: geom.Point{X: v[2], Y: v[3]}},
				Width: width,
			})
		default:
			err = fmt.Errorf("unknown directive %q", f[0])
		}
		if err != nil {
			return nil, fmt.Errorf("designio: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("designio: %w", err)
	}
	if !sawDie {
		return nil, fmt.Errorf("designio: missing die directive")
	}
	for i := range d.Cells {
		d.Cells[i].NumPins = len(d.Cells[i].Pins)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("designio: %w", err)
	}
	return d, nil
}

func floats4Ref(f []string) ([4]float64, error) {
	var out [4]float64
	if len(f) < 4 {
		return out, fmt.Errorf("want 4 numbers, got %d", len(f))
	}
	for i := 0; i < 4; i++ {
		v, err := parseFiniteRef(f[i])
		if err != nil {
			return out, err
		}
		out[i] = v
	}
	return out, nil
}

func parseFiniteRef(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

func parseKindRef(s string) (netlist.CellKind, error) {
	switch s {
	case "stdcell":
		return netlist.StdCell, nil
	case "macro":
		return netlist.Macro, nil
	case "iopad":
		return netlist.IOPad, nil
	default:
		return 0, fmt.Errorf("unknown cell kind %q", s)
	}
}
