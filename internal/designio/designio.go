// Package designio reads and writes placement designs in a plain-text format
// in the spirit of the Bookshelf files the ISPD contests distribute (the real
// contest data is LEF/DEF; this single-file format carries exactly the
// information the placer consumes: die, rows, cells, hypergraph, PG rails
// and routing parameters).
//
// The format is line-oriented; '#' starts a comment. All cross-references
// are by index in declaration order:
//
//	design <name>
//	die <x0> <y0> <x1> <y1>
//	row <height> <sitewidth>
//	route <layers> <capscale>
//	density <target>
//	cell <name> <stdcell|macro|iopad> <cx> <cy> <w> <h>
//	net <name> <weight>
//	pin <cell-index> <net-index> <offx> <offy>
//	rail <x0> <y0> <x1> <y1> <width>
//
// Tokens are separated by runs of white space: every rune unicode.IsSpace
// reports, as strings.Fields splits. Write therefore maps each such rune in
// a name to '_' (and an empty name to "_"), so any name reads back as one
// token; a name without white space keeps its bytes. Numbers are written
// as fmt's %g and %d write them and read with strconv.ParseFloat and
// strconv.Atoi; a non-finite number is rejected.
package designio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// Write serializes d to w. The output is deterministic and Read-compatible.
// Each line is appended into one reused buffer and streamed through a
// bufio.Writer, so the file is never held in memory whole.
func Write(w io.Writer, d *netlist.Design) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	line := make([]byte, 0, 256)
	put := func(b []byte) []byte {
		b = append(b, '\n')
		bw.Write(b) // a write error sticks; Flush reports it
		return b[:0]
	}
	floats := func(b []byte, vs ...float64) []byte {
		for _, v := range vs {
			b = strconv.AppendFloat(append(b, ' '), v, 'g', -1, 64)
		}
		return b
	}
	bw.WriteString("# nmplace design file\n")
	line = put(append(append(line, "design "...), escape(d.Name)...))
	line = put(floats(append(line, "die"...), d.Die.Lo.X, d.Die.Lo.Y, d.Die.Hi.X, d.Die.Hi.Y))
	line = put(floats(append(line, "row"...), d.RowHeight, d.SiteWidth))
	line = put(floats(strconv.AppendInt(append(line, "route "...), int64(d.RouteLayers), 10), d.RouteCapScale))
	line = put(floats(append(line, "density"...), d.TargetDensity))
	for i := range d.Cells {
		c := &d.Cells[i]
		line = append(append(line, "cell "...), escape(c.Name)...)
		line = append(append(line, ' '), c.Kind.String()...)
		line = put(floats(line, c.X, c.Y, c.W, c.H))
	}
	for i := range d.Nets {
		n := &d.Nets[i]
		line = put(floats(append(append(line, "net "...), escape(n.Name)...), n.Weight))
	}
	for i := range d.Pins {
		p := &d.Pins[i]
		line = strconv.AppendInt(append(line, "pin "...), int64(p.Cell), 10)
		line = strconv.AppendInt(append(line, ' '), int64(p.Net), 10)
		line = put(floats(line, p.OffX, p.OffY))
	}
	for _, r := range d.Rails {
		line = put(floats(append(line, "rail"...), r.Seg.A.X, r.Seg.A.Y, r.Seg.B.X, r.Seg.B.Y, r.Width))
	}
	return bw.Flush()
}

// Read parses a design previously produced by Write (or hand-authored in the
// same format) and validates it. Lines are split in the scanner's buffer;
// only names are copied out of it.
func Read(r io.Reader) (*netlist.Design, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	d := &netlist.Design{RouteLayers: 4, RouteCapScale: 1, TargetDensity: 0.9}
	lineNo := 0
	sawDie := false
	var f [][]byte
	for sc.Scan() {
		lineNo++
		f = fields(f, sc.Bytes())
		if len(f) == 0 || f[0][0] == '#' {
			continue
		}
		var err error
		switch string(f[0]) {
		case "design":
			if len(f) != 2 {
				err = fmt.Errorf("design wants 1 field")
			} else {
				d.Name = string(f[1])
			}
		case "die":
			var v [4]float64
			if v, err = floats4(f[1:]); err == nil {
				d.Die = geom.NewRect(v[0], v[1], v[2], v[3])
				sawDie = true
			}
		case "row":
			if len(f) != 3 {
				err = fmt.Errorf("row wants 2 fields")
				break
			}
			if d.RowHeight, err = parseFinite(f[1]); err == nil {
				d.SiteWidth, err = parseFinite(f[2])
			}
		case "route":
			if len(f) != 3 {
				err = fmt.Errorf("route wants 2 fields")
				break
			}
			if d.RouteLayers, err = strconv.Atoi(string(f[1])); err == nil {
				d.RouteCapScale, err = parseFinite(f[2])
			}
		case "density":
			if len(f) != 2 {
				err = fmt.Errorf("density wants 1 field")
				break
			}
			d.TargetDensity, err = parseFinite(f[1])
		case "cell":
			if len(f) != 7 {
				err = fmt.Errorf("cell wants 6 fields")
				break
			}
			var kind netlist.CellKind
			if kind, err = parseKind(f[2]); err != nil {
				break
			}
			var v [4]float64
			if v, err = floats4(f[3:]); err != nil {
				break
			}
			d.Cells = append(d.Cells, netlist.Cell{
				Name: string(f[1]), Kind: kind, X: v[0], Y: v[1], W: v[2], H: v[3],
			})
		case "net":
			if len(f) != 3 {
				err = fmt.Errorf("net wants 2 fields")
				break
			}
			var wgt float64
			if wgt, err = parseFinite(f[2]); err != nil {
				break
			}
			d.Nets = append(d.Nets, netlist.Net{Name: string(f[1]), Weight: wgt})
		case "pin":
			if len(f) != 5 {
				err = fmt.Errorf("pin wants 4 fields")
				break
			}
			var ci, ni int
			if ci, err = strconv.Atoi(string(f[1])); err != nil {
				break
			}
			if ni, err = strconv.Atoi(string(f[2])); err != nil {
				break
			}
			var ox, oy float64
			if ox, err = parseFinite(f[3]); err != nil {
				break
			}
			if oy, err = parseFinite(f[4]); err != nil {
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
			d.Pins = append(d.Pins, netlist.Pin{Cell: ci, Net: ni, OffX: ox, OffY: oy})
		case "rail":
			if len(f) != 6 {
				err = fmt.Errorf("rail wants 5 fields")
				break
			}
			var v [4]float64
			if v, err = floats4(f[1:5]); err != nil {
				break
			}
			var width float64
			if width, err = parseFinite(f[5]); err != nil {
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
	d.LinkPins()
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("designio: %w", err)
	}
	return d, nil
}

// Byte classes for fields: a token byte, an ASCII byte unicode.IsSpace
// reports, or a byte ≥ 0x80.
const (
	tokenByte = iota
	spaceByte
	wideByte
)

var byteClass = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = spaceByte
	}
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = wideByte
	}
	return c
}()

// fields returns line's white-space-separated tokens, as bytes.Fields
// splits them, reusing dst's storage. An ASCII line is split in one pass;
// a line holding any byte ≥ 0x80 goes to bytes.Fields, which decodes its
// runes.
func fields(dst [][]byte, line []byte) [][]byte {
	dst = dst[:0]
	for i, n := 0, len(line); i < n; {
		for i < n && byteClass[line[i]] == spaceByte {
			i++
		}
		start := i
		for i < n && byteClass[line[i]] == tokenByte {
			i++
		}
		if i < n && byteClass[line[i]] == wideByte {
			return append(dst[:0], bytes.Fields(line)...)
		}
		if start < i {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}

func floats4(f [][]byte) ([4]float64, error) {
	var out [4]float64
	if len(f) < 4 {
		return out, fmt.Errorf("want 4 numbers, got %d", len(f))
	}
	for i := 0; i < 4; i++ {
		v, err := parseFinite(f[i])
		if err != nil {
			return out, err
		}
		out[i] = v
	}
	return out, nil
}

// parseFinite parses a float and rejects NaN/±Inf: every geometric or
// weight quantity in the format must be finite, and strconv.ParseFloat
// happily accepts "NaN". One poisoned coordinate would otherwise slip past
// Validate (NaN compares false to every bound) straight into the optimizer.
func parseFinite(tok []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", tok)
	}
	return v, nil
}

func parseKind(tok []byte) (netlist.CellKind, error) {
	switch string(tok) {
	case "stdcell":
		return netlist.StdCell, nil
	case "macro":
		return netlist.Macro, nil
	case "iopad":
		return netlist.IOPad, nil
	default:
		return 0, fmt.Errorf("unknown cell kind %q", tok)
	}
}

// escape makes a name one token: every white-space rune becomes '_', and an
// empty name is "_". A name of ASCII non-space bytes is returned as is.
func escape(s string) string {
	if s == "" {
		return "_"
	}
	for i := 0; i < len(s); i++ {
		if byteClass[s[i]] != tokenByte {
			return strings.Map(func(r rune) rune {
				if unicode.IsSpace(r) {
					return '_'
				}
				return r
			}, s)
		}
	}
	return s
}
