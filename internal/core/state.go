package core

// Checkpoint serialization: the serializable subset of PlacementState, a
// deterministic line-oriented text form for it (designio-style: '#' starts
// a comment, tokens are whitespace-separated, floats use %g which is the
// shortest exact round-trip form), and the restore path that rebuilds a
// runnable PlacementState from a parsed checkpoint.
//
// The format is canonical: writeCheckpoint(readCheckpoint(b)) == b for any
// checkpoint this package wrote. That, plus the fact that every runtime
// model is reconstructed deterministically from the serialized state,
// is what makes resumed runs byte-identical to uninterrupted ones.
//
// A file is the version line, the fixed-layout records checkpoint.records
// lists (in its order; a vector record reads "vec <name> <n> <v1> … <vn>"),
// the telemetry records, "end" and the crc footer:
//
//	nmckpt 2
//	cursor <stage> <iter> <step>
//	…
//	tel <seq> <nextspanid>  + telspan / telagg / telctr / telgauge / telhist
//	end
//	crc <8-hex-digits>
//
// The crc footer is an IEEE CRC-32 over every byte before it (the whole
// file up to and including the "end" line's newline). Any truncation or
// byte flip fails the checksum before parsing begins; all such failures —
// and any parse failure on checksummed content other than a format
// mismatch — wrap ErrCheckpointCorrupt so callers can distinguish a damaged
// file from a design/option/format mismatch and fall back to the rotated
// ".prev" checkpoint (see ResumeFromFile).

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/guard"
	"repro/internal/inflation"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// Version history: 1 = initial format; 2 = CRC-32 footer, the nesterov
// record's step-scale field, and the optional guard record.
const checkpointVersion = 2

// ErrCheckpointCorrupt marks a checkpoint file that failed validation —
// checksum mismatch, truncation, or unparsable checksummed content. It is
// distinct from semantic mismatches (wrong design, conflicting options),
// which are NOT corruption and never trigger the ".prev" fallback.
var ErrCheckpointCorrupt = errors.New("checkpoint corrupt")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("core: %w: "+format, append([]any{ErrCheckpointCorrupt}, args...)...)
}

// checkpoint is the serializable subset of PlacementState. Everything not
// here (density bins, Poisson plans, the router, span objects, …) is
// rebuilt deterministically on restore.
type checkpoint struct {
	Cur cursor

	// Opt is the options fingerprint: the run's options after setDefaults,
	// with the environment fields (Options.withEnvironment) zero — they may
	// differ between the two run halves without affecting results. A
	// multilevel checkpoint holds the caller's options, never a level's
	// derived ones. Levels and ClusterMaxSize ride the multilevel record and
	// Guard the guard record; an unguarded run writes no guard record.
	Opt Options

	// Multilevel position (Opt.Levels ≥ 2): the coarsest level built, the
	// level the cursor (and CellPos) belong to, and that level's cell count,
	// validated against the rebuilt hierarchy on resume. Flat runs write no
	// multilevel record.
	ML                      bool
	MLTop, MLLevel, MLCells int

	// Guard recoveries already used, so a resumed run keeps honouring the
	// same retry budget.
	GuardRetries int

	// Design fingerprint (the netlist itself is not embedded; resume takes
	// the same design file and validates it against this). Always the
	// ORIGINAL design, even for a checkpoint captured at a coarse level.
	NumCells, NumNets, NumPins, NumRails int
	Die                                  geom.Rect

	// Res is the partial result; the result and vec conghist records name
	// the fields a checkpoint keeps.
	Res Result

	// All cell centers, x/y interleaved in cell index order.
	CellPos []float64

	// Global-placement state (cursor inside wirelength/routability).
	HasGP   bool
	GP      gpState
	Fillers []float64

	// Routability-loop state (the loop prologue has run).
	HasLoop            bool
	BestC              float64
	Stall              int
	BestX              []float64
	Infl               inflation.State
	PGRho              []float64
	HasCong            bool
	CongUtil, CongCong []float64
	// Router decomposition-cache key: the per-pin G-cell signature (int32
	// values, stored as floats — %g round-trips them exactly). Empty when
	// the router had not routed yet. Restore rebuilds the entire cache from
	// it, so resumed cache-hit/dirty-net counters continue exactly.
	RtrPinCell []float64

	// Telemetry continuation state (present when the run had an Observer).
	Tel *telemetry.ObserverState
}

// capture snapshots the placement state at the current cursor. Everything
// is deep-copied; the checkpoint shares nothing with the live run.
func (ps *PlacementState) capture() *checkpoint {
	d, fingerD, opt := ps.D, ps.D, &ps.Opt
	if ps.ml != nil {
		// A multilevel checkpoint is identified by the run the user started:
		// the original design and the outer options. The level pipeline's
		// derived options (coarse grid, skip flags) are reconstructed on
		// resume, never serialized.
		fingerD, opt = ps.ml.orig, &ps.ml.outer
	}
	ck := &checkpoint{
		Cur: ps.cur,
		Opt: opt.withEnvironment(Options{}),

		NumCells: len(fingerD.Cells),
		NumNets:  len(fingerD.Nets),
		NumPins:  len(fingerD.Pins),
		NumRails: len(fingerD.Rails),
		Die:      fingerD.Die,

		Res:     *ps.Res,
		CellPos: d.SnapshotPositions(),
	}
	ck.Res.CongestionHistory = slices.Clone(ps.Res.CongestionHistory)
	if ps.ml != nil {
		ck.ML, ck.MLTop, ck.MLLevel, ck.MLCells = true, ps.ml.topLevel, ps.level, len(d.Cells)
	}
	if ps.grd != nil {
		ck.GuardRetries = ps.grd.retries
	}

	gpStage := ps.cur.stage == "wirelength" || ps.cur.stage == "routability"
	if gpStage && ps.optm != nil {
		ck.HasGP = true
		ps.captureGP(&ck.GP)
		ck.Fillers = slices.Clone(ps.dens.FillerPos)
	}
	if ck.HasGP && ps.loopReady {
		ck.HasLoop = true
		ck.BestC = ps.bestC
		ck.Stall = ps.stall
		ck.BestX = append([]float64(nil), ps.bestX...)
		ck.Infl = inflation.Capture(ps.inf)
		ck.PGRho = ps.dens.PGDensity()
		if ps.cong != nil {
			if util, cong := ps.cong.State(); util != nil {
				ck.HasCong = true
				ck.CongUtil, ck.CongCong = util, cong
			}
		}
		if ps.rtr != nil {
			if sig := ps.rtr.DecompositionSignature(); sig != nil {
				ck.RtrPinCell = make([]float64, len(sig))
				for i, q := range sig {
					ck.RtrPinCell[i] = float64(q)
				}
			}
		}
	}
	ck.Tel = ps.obs.CaptureState()
	return ck
}

// ckRecord is one fixed-layout checkpoint record.
type ckRecord struct {
	key    string // the record's first token; "vec <name>" for a vector
	write  bool   // whether this checkpoint writes it
	has    *bool  // the presence flag parsing it sets, or nil
	fields []any  // pointers to its fields, in file order
}

// orDash is a string field that may be empty; it is written as "-" then.
type orDash struct{ s *string }

// records lists every fixed-layout record in file order: the one place a
// record's fields and their order are named. The writer emits the records
// marked write; the parser fills the fields of each record it reads.
func (ck *checkpoint) records() []ckRecord {
	o, t, g, r := &ck.Opt, &ck.Opt.Tech, &ck.Opt.Guard, &ck.Res
	gp, loop, s := ck.HasGP, ck.HasLoop, &ck.GP
	momentum, cong := loop && ck.Infl.Scheme == "momentum", loop && ck.HasCong
	vec := func(name string, write bool, v *[]float64) ckRecord {
		return ckRecord{"vec " + name, write, nil, []any{v}}
	}
	return []ckRecord{
		{"cursor", true, nil, []any{&ck.Cur.stage, &ck.Cur.iter, &ck.Cur.step}},
		{"multilevel", ck.ML, &ck.ML, []any{&o.Levels, &o.ClusterMaxSize, &ck.MLTop, &ck.MLLevel, &ck.MLCells}},
		{"mode", true, nil, []any{&o.Mode}},
		{"tech", true, nil, []any{&t.MCI, &t.DC, &t.DPA, &t.MomentumAlpha,
			orDash{&t.InflationScheme}, &t.CongestionThreshold, &t.FixedLambda2, &t.VirtualAtMidpoint}},
		{"opts", true, nil, []any{&o.GridHint, &o.MaxWLIters, &o.WLOverflowStop, &o.MaxRouteIters,
			&o.StepsPerRouteIter, &o.CongestionPatience, &o.SkipLegalize, &o.SkipDetailed}},
		{"guard", g.Enabled(), nil, []any{&g.Policy, &g.MaxRetries, &g.Backoff, &g.CheckEvery, &ck.GuardRetries}},
		{"design", true, nil, []any{&ck.NumCells, &ck.NumNets, &ck.NumPins, &ck.NumRails,
			&ck.Die.Lo.X, &ck.Die.Lo.Y, &ck.Die.Hi.X, &ck.Die.Hi.Y}},
		{"result", true, nil, []any{&r.WLIters, &r.RouteIters, &r.FinalOverflow,
			&r.HPWLGlobal, &r.HPWLLegalized, &r.LegalizeDisp}},
		vec("conghist", true, &r.CongestionHistory),
		vec("cellpos", true, &ck.CellPos),
		{"gp", gp, &ck.HasGP, []any{&s.Gamma, &s.Lambda1, &s.Lambda2, &s.LastWL, &s.LastOv, &s.LastWLGradL1}},
		{"nesterov", gp, nil, []any{&s.Nes.A, &s.Nes.First, &s.Nes.Steps, &s.Nes.Scale}},
		vec("nes.u", gp, &s.Nes.U),
		vec("nes.v", gp, &s.Nes.V),
		vec("nes.vprev", gp, &s.Nes.VPrev),
		vec("nes.gprev", gp, &s.Nes.GPrev),
		vec("fillers", gp, &ck.Fillers),
		{"loop", loop, &ck.HasLoop, []any{&ck.BestC, &ck.Stall}},
		{"infl", loop, nil, []any{&ck.Infl.Scheme, &ck.Infl.AvgPrev, &ck.Infl.T}},
		vec("infl.r", loop, &ck.Infl.R),
		vec("infl.dr", momentum, &ck.Infl.DR),
		vec("infl.cprev", momentum, &ck.Infl.CPrev),
		vec("bestx", loop, &ck.BestX),
		vec("pgrho", loop, &ck.PGRho),
		{"cong", loop, nil, []any{&ck.HasCong}},
		vec("cong.util", cong, &ck.CongUtil),
		vec("cong.cong", cong, &ck.CongCong),
		vec("rtr.pincell", loop, &ck.RtrPinCell),
	}
}

// ---- Writing ----

// writeCheckpointFile writes the checkpoint atomically: a rename either
// publishes the complete file or leaves the previous one intact, so a
// crash mid-write can never produce a torn checkpoint. An existing
// checkpoint at path is rotated to path+".prev" first, keeping the last
// successfully-written state available as a fallback should the new file
// later fail validation (bit rot, a partial copy, …).
func writeCheckpointFile(path string, ck *checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := writeCheckpoint(f, ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+".prev"); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// writeCheckpoint serializes ck in the canonical text form: the body,
// then the CRC-32 footer over the body's bytes.
func writeCheckpoint(w io.Writer, ck *checkpoint) error {
	var buf bytes.Buffer
	writeCheckpointBody(&buf, ck)
	sum := crc32.ChecksumIEEE(buf.Bytes())
	fmt.Fprintf(&buf, "crc %08x\n", sum)
	_, err := w.Write(buf.Bytes())
	return err
}

func writeCheckpointBody(bw *bytes.Buffer, ck *checkpoint) {
	fmt.Fprintf(bw, "# nmplace checkpoint\n")
	fmt.Fprintf(bw, "nmckpt %d\n", checkpointVersion)
	for _, r := range ck.records() {
		if r.write {
			writeRecord(bw, r.key, r.fields)
		}
	}
	if ck.Tel != nil {
		st := ck.Tel
		fmt.Fprintf(bw, "tel %d %d\n", st.Seq, st.NextSpanID)
		for _, s := range st.OpenSpans {
			fmt.Fprintf(bw, "telspan %d %s\n", s.ID, s.Name)
		}
		for _, a := range st.Stages {
			fmt.Fprintf(bw, "telagg %s %d %d %d\n", a.Name, a.Depth, a.Count, int64(a.Total))
		}
		for i := range st.Metrics {
			m := &st.Metrics[i]
			switch m.Kind {
			case "counter":
				fmt.Fprintf(bw, "telctr %s %d\n", m.Name, m.Counter)
			case "gauge":
				fmt.Fprintf(bw, "telgauge %s %s %s %g\n",
					m.Name, b01(m.Volatile), b01(m.GaugeSet), m.Gauge)
			case "histogram":
				fmt.Fprintf(bw, "telhist %s %d %g %g %g", m.Name, m.Count, m.Sum, m.Min, m.Max)
				for _, b := range m.Buckets {
					fmt.Fprintf(bw, " %d", b)
				}
				fmt.Fprintf(bw, "\n")
			}
		}
	}
	fmt.Fprintf(bw, "end\n")
}

func b01(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// writeRecord writes one record line: the key, then each field.
func writeRecord(bw *bytes.Buffer, key string, fields []any) {
	b := append(bw.AvailableBuffer(), key...)
	for _, f := range fields {
		b = appendField(append(b, ' '), f)
	}
	bw.Write(append(b, '\n'))
}

// appendField is the field encoder. A float is the shortest 'g' form that
// reads back to the same float64, the bytes fmt's %g gives; a vector is its
// length, then its elements.
func appendField(b []byte, f any) []byte {
	switch f := f.(type) {
	case *int:
		return strconv.AppendInt(b, int64(*f), 10)
	case *Mode:
		return strconv.AppendInt(b, int64(*f), 10)
	case *float64:
		return strconv.AppendFloat(b, *f, 'g', -1, 64)
	case *bool:
		return append(b, b01(*f)...)
	case *string:
		return append(b, *f...)
	case orDash:
		if *f.s == "" {
			return append(b, '-')
		}
		return append(b, *f.s...)
	case *guard.Policy:
		return append(b, f.String()...)
	case *[]float64:
		b = strconv.AppendInt(b, int64(len(*f)), 10)
		for _, x := range *f {
			b = strconv.AppendFloat(append(b, ' '), x, 'g', -1, 64)
		}
		return b
	}
	panic(fmt.Sprintf("core: checkpoint field of type %T", f))
}

// ---- Reading ----

// fieldParser consumes whitespace-separated tokens of one line, recording
// the first conversion error.
type fieldParser struct {
	f    []string
	i    int
	what string
	err  error
}

func (p *fieldParser) token() string {
	if p.err != nil {
		return ""
	}
	if p.i >= len(p.f) {
		p.err = fmt.Errorf("%s: too few fields", p.what)
		return ""
	}
	t := p.f[p.i]
	p.i++
	return t
}

func (p *fieldParser) nextInt() int {
	t := p.token()
	if p.err != nil {
		return 0
	}
	v, err := strconv.Atoi(t)
	if err != nil {
		p.err = fmt.Errorf("%s: bad int %q", p.what, t)
	}
	return v
}

func (p *fieldParser) nextI64() int64 {
	t := p.token()
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		p.err = fmt.Errorf("%s: bad int %q", p.what, t)
	}
	return v
}

func (p *fieldParser) nextFloat() float64 {
	t := p.token()
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		p.err = fmt.Errorf("%s: bad float %q", p.what, t)
	}
	return v
}

func (p *fieldParser) nextBool() bool {
	switch t := p.token(); t {
	case "1":
		return true
	case "0":
		return false
	default:
		if p.err == nil {
			p.err = fmt.Errorf("%s: bad bool %q", p.what, t)
		}
		return false
	}
}

// field is the field decoder, appendField's inverse.
func (p *fieldParser) field(f any) {
	switch f := f.(type) {
	case *int:
		*f = p.nextInt()
	case *Mode:
		*f = Mode(p.nextInt())
	case *float64:
		*f = p.nextFloat()
	case *bool:
		*f = p.nextBool()
	case *string:
		*f = p.token()
	case orDash:
		if s := p.token(); s != "-" {
			*f.s = s
		}
	case *guard.Policy:
		pol, err := guard.ParsePolicy(p.token())
		if err != nil && p.err == nil {
			p.err = err
		}
		*f = pol
	case *[]float64:
		n := p.nextInt()
		// The declared count sizes the allocation; cap it by the tokens
		// actually on the line so a corrupted count can neither allocate
		// gigabytes nor spin through a billion empty parses.
		if rest := len(p.f) - p.i; p.err == nil && (n < 0 || n > rest) {
			p.err = fmt.Errorf("%s declares %d values, line carries %d", p.what, n, rest)
		}
		*f = nil
		if p.err == nil && n > 0 {
			*f = make([]float64, n)
			for k := range *f {
				(*f)[k] = p.nextFloat()
			}
		}
	default:
		panic(fmt.Sprintf("core: checkpoint field of type %T", f))
	}
}

func (p *fieldParser) done() error {
	if p.err != nil {
		return p.err
	}
	if p.i != len(p.f) {
		return fmt.Errorf("%s: %d extra fields", p.what, len(p.f)-p.i)
	}
	return nil
}

// readCheckpoint validates and parses the canonical text form back into a
// checkpoint. The CRC-32 footer is verified first, so damaged content is
// rejected (as ErrCheckpointCorrupt) before any of it is parsed.
func readCheckpoint(r io.Reader) (*checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	body, err := verifyChecksum(data)
	if err != nil {
		return nil, err
	}
	return parseCheckpoint(body)
}

// verifyChecksum checks the trailing "crc <8-hex>" footer line against the
// bytes before it and returns those bytes (the checkpoint body).
func verifyChecksum(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, corruptf("empty checkpoint file")
	}
	if data[len(data)-1] != '\n' {
		return nil, corruptf("truncated checkpoint (no trailing newline)")
	}
	i := bytes.LastIndexByte(data[:len(data)-1], '\n')
	last := string(data[i+1 : len(data)-1])
	hexDigits, ok := strings.CutPrefix(last, "crc ")
	if !ok {
		return nil, corruptf("truncated checkpoint (missing crc footer)")
	}
	want, err := strconv.ParseUint(hexDigits, 16, 32)
	if err != nil {
		return nil, corruptf("unparsable crc footer %q", last)
	}
	body := data[:i+1]
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		return nil, corruptf("crc mismatch: footer says %08x, content hashes to %08x", uint32(want), got)
	}
	return body, nil
}

// parseCheckpoint parses the checksummed checkpoint body. A failure here
// means the content is malformed despite a valid checksum and is reported
// as corruption, except for a format mismatch: an unsupported version, a
// record this build does not know, or the lack of one this build writes
// for the state parsed. Another build's writer produces those from sound
// state, and the .prev file it rotated has the same format, so they are
// plain errors. An unknown vector name is corruption: every build writes
// the same vector records.
func parseCheckpoint(body []byte) (*checkpoint, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	// Vectors are single lines of 2N floats; allow very long lines.
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	ck := &checkpoint{}
	recs := map[string]ckRecord{}
	for _, r := range ck.records() {
		recs[r.key] = r
	}
	sawVersion, sawEnd := false, false
	seen := map[string]bool{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if sawEnd {
			return nil, corruptf("checkpoint line %d: content after end", lineNo)
		}
		f := strings.Fields(line)
		key := f[0]
		p := &fieldParser{f: f[1:], what: key}
		if key == "vec" {
			key += " " + p.token()
			p.what = key
		}
		switch key {
		case "nmckpt":
			if v := p.nextInt(); p.err == nil && v != checkpointVersion {
				return nil, fmt.Errorf("core: checkpoint version %d not supported", v)
			}
			sawVersion = true
		case "tel":
			ck.Tel = &telemetry.ObserverState{}
			ck.Tel.Seq = p.nextI64()
			ck.Tel.NextSpanID = p.nextInt()
		case "telspan":
			if ck.Tel == nil {
				return nil, corruptf("checkpoint line %d: telspan before tel", lineNo)
			}
			id := p.nextInt()
			name := p.token()
			ck.Tel.OpenSpans = append(ck.Tel.OpenSpans, telemetry.SpanState{ID: id, Name: name})
		case "telagg":
			if ck.Tel == nil {
				return nil, corruptf("checkpoint line %d: telagg before tel", lineNo)
			}
			st := telemetry.StageTiming{Name: p.token()}
			st.Depth = p.nextInt()
			st.Count = p.nextInt()
			st.Total = time.Duration(p.nextI64())
			ck.Tel.Stages = append(ck.Tel.Stages, st)
		case "telctr":
			if ck.Tel == nil {
				return nil, corruptf("checkpoint line %d: telctr before tel", lineNo)
			}
			m := telemetry.MetricState{Kind: "counter", Name: p.token()}
			m.Counter = p.nextI64()
			ck.Tel.Metrics = append(ck.Tel.Metrics, m)
		case "telgauge":
			if ck.Tel == nil {
				return nil, corruptf("checkpoint line %d: telgauge before tel", lineNo)
			}
			m := telemetry.MetricState{Kind: "gauge", Name: p.token()}
			m.Volatile = p.nextBool()
			m.GaugeSet = p.nextBool()
			m.Gauge = p.nextFloat()
			ck.Tel.Metrics = append(ck.Tel.Metrics, m)
		case "telhist":
			if ck.Tel == nil {
				return nil, corruptf("checkpoint line %d: telhist before tel", lineNo)
			}
			m := telemetry.MetricState{Kind: "histogram", Name: p.token()}
			m.Count = p.nextI64()
			m.Sum = p.nextFloat()
			m.Min = p.nextFloat()
			m.Max = p.nextFloat()
			m.Buckets = make([]int64, 0, telemetry.HistogramBuckets)
			for k := 0; k < telemetry.HistogramBuckets; k++ {
				m.Buckets = append(m.Buckets, p.nextI64())
			}
			ck.Tel.Metrics = append(ck.Tel.Metrics, m)
		case "end":
			sawEnd = true
		default:
			r, ok := recs[key]
			switch {
			case !ok && f[0] == "vec":
				return nil, corruptf("checkpoint line %d: unknown vector %q", lineNo, key[4:])
			case !ok:
				return nil, fmt.Errorf("core: checkpoint line %d: unknown record %q (format of another build)", lineNo, f[0])
			case r.has != nil:
				*r.has = true
			}
			seen[key] = true
			for _, fld := range r.fields {
				p.field(fld)
			}
		}
		if err := p.done(); err != nil {
			return nil, corruptf("checkpoint line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	if !sawVersion {
		return nil, corruptf("not a checkpoint file (missing nmckpt header)")
	}
	if !sawEnd {
		return nil, corruptf("truncated checkpoint (missing end record)")
	}
	// Every record the writer would emit for this state must be here: a
	// record left at its zero value does not survive a rewrite.
	for _, r := range ck.records() {
		if r.write && !seen[r.key] {
			return nil, fmt.Errorf("core: checkpoint lacks the %q record (format of another build)", r.key)
		}
	}
	if stageIndex(ck.Cur.stage) >= len(stages) {
		return nil, corruptf("checkpoint has unknown cursor stage %q", ck.Cur.stage)
	}
	o := &ck.Opt
	if ck.ML && (o.Levels < 2 || o.ClusterMaxSize < 0 || ck.MLTop < 1 ||
		ck.MLLevel < 0 || ck.MLLevel > ck.MLTop || ck.MLCells <= 0) {
		return nil, corruptf("checkpoint has inconsistent multilevel record %d %d %d %d %d",
			o.Levels, o.ClusterMaxSize, ck.MLTop, ck.MLLevel, ck.MLCells)
	}
	ck.Die = geom.NewRect(ck.Die.Lo.X, ck.Die.Lo.Y, ck.Die.Hi.X, ck.Die.Hi.Y)
	return ck, nil
}

// ---- Resume ----

// ResumeContext continues a checkpointed run. The caller supplies the SAME
// design the original run was started on (validated against the checkpoint
// fingerprint) and an Options whose run-defining fields either match the
// checkpointed ones or are left zero (the checkpoint is then authoritative).
// Only the environment fields — Workers, Log, Observer, the checkpoint
// settings, BoundaryHook and FaultInjector — are taken from opt
// unconditionally; any Workers setting yields the identical placement. The
// Observer, when given, must be fresh: the checkpoint restores the
// interrupted run's telemetry state into it so the resumed trace is a
// byte-exact continuation.
func ResumeContext(ctx context.Context, d *netlist.Design, ckr io.Reader, opt Options) (*Result, error) {
	ck, err := readCheckpoint(ckr)
	if err != nil {
		return nil, err
	}
	return resumeCheckpoint(ctx, d, ck, opt)
}

// ResumeFromFile is ResumeContext reading the checkpoint from a file, with
// last-good fallback: when path fails validation (CRC mismatch, truncation
// — anything wrapping ErrCheckpointCorrupt), the rotated path+".prev"
// checkpoint written by the previous successful checkpoint write is tried
// before giving up. Falling back resumes from one checkpoint earlier, which
// by determinism still reproduces the uninterrupted run's final placement.
// Semantic errors (wrong design, conflicting options) never fall back.
func ResumeFromFile(ctx context.Context, d *netlist.Design, path string, opt Options) (*Result, error) {
	ck, rerr := readCheckpointFile(path)
	if rerr != nil {
		if !errors.Is(rerr, ErrCheckpointCorrupt) {
			return nil, rerr
		}
		prev := path + ".prev"
		ckPrev, perr := readCheckpointFile(prev)
		if perr != nil {
			return nil, fmt.Errorf("%w (fallback %s: %v)", rerr, prev, perr)
		}
		// Plain-log only: the Observer's restored sequence must start
		// exactly where the interrupted trace stopped.
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "resume: checkpoint %s is corrupt (%v); falling back to last-good %s\n",
				path, rerr, prev)
		}
		ck = ckPrev
	}
	return resumeCheckpoint(ctx, d, ck, opt)
}

// CheckpointInfo summarizes a checkpoint file for job-management tooling
// without rebuilding any runtime state.
type CheckpointInfo struct {
	// Stage, Iter and Step are the pipeline cursor the checkpoint was taken
	// at (the next work to do on resume).
	Stage string
	Iter  int
	Step  int
	// Level is the multilevel hierarchy level the cursor belongs to
	// (0 for flat runs and for a multilevel run's finest level).
	Level int
	// RouteIters is the number of router calls committed so far.
	RouteIters int
	// TraceSeq is the number of telemetry events the run had emitted when
	// the state was captured: exactly the first TraceSeq lines of the run's
	// JSONL trace precede this checkpoint. A supervisor migrating a crashed
	// run truncates the trace file to those lines before resuming, which
	// keeps the continued trace a byte-exact continuation. Zero when the run
	// had no Observer.
	TraceSeq int64
}

// InspectCheckpoint validates and summarizes the checkpoint at path. A
// damaged file fails with ErrCheckpointCorrupt, exactly as resuming from it
// would, so callers can probe a primary checkpoint and fall back to its
// rotated ".prev" sibling themselves.
func InspectCheckpoint(path string) (CheckpointInfo, error) {
	ck, err := readCheckpointFile(path)
	if err != nil {
		return CheckpointInfo{}, err
	}
	info := CheckpointInfo{
		Stage:      ck.Cur.stage,
		Iter:       ck.Cur.iter,
		Step:       ck.Cur.step,
		Level:      ck.MLLevel,
		RouteIters: ck.Res.RouteIters,
	}
	if ck.Tel != nil {
		info.TraceSeq = ck.Tel.Seq
	}
	return info, nil
}

func readCheckpointFile(path string) (*checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readCheckpoint(f)
}

// resumeCheckpoint is the shared back half of ResumeContext/ResumeFromFile.
func resumeCheckpoint(ctx context.Context, d *netlist.Design, ck *checkpoint, opt Options) (*Result, error) {
	merged, err := ck.mergeOptions(opt)
	if err != nil {
		return nil, err
	}
	if err := validateRun(d, &merged); err != nil {
		return nil, err
	}
	if ck.ML {
		return resumeMultilevel(ctx, d, ck, merged)
	}
	ps, err := ck.restore(d, merged)
	if err != nil {
		return nil, err
	}
	return runPipeline(ctx, ps)
}

// mergeOptions reconciles the caller's options with the checkpointed ones:
// checkpointed run-defining fields are authoritative, and a caller value
// that is set (non-zero, after the documented negative-sentinel mapping)
// but different is an error — resuming under different placement options
// could not reproduce the original run.
func (ck *checkpoint) mergeOptions(opt Options) (Options, error) {
	c := &ck.Opt
	// The checkpoint stores post-setDefaults values, so WLOverflowStop==0
	// really means threshold zero; re-running setDefaults would turn it
	// back into 0.12. Map the caller's sentinels the same way setDefaults
	// would before comparing.
	wlStop := opt.WLOverflowStop
	if wlStop < 0 {
		wlStop = 0
	}
	patience := opt.CongestionPatience
	if patience < 0 {
		patience = 0
	}
	// Levels 0 and 1 both select the flat flow; ClusterMaxSize follows the
	// sentinel convention (negative selects "no cap", serialized as 0).
	levels := opt.Levels
	if levels == 1 {
		levels = 0
	}
	maxSize := opt.ClusterMaxSize
	if maxSize < 0 {
		maxSize = 0
	}
	mismatch := ""
	switch {
	case opt.Mode != 0 && opt.Mode != c.Mode:
		mismatch = "Mode"
	case opt.Tech != (Techniques{}) && opt.Tech != c.Tech:
		mismatch = "Tech"
	case opt.GridHint != 0 && opt.GridHint != c.GridHint:
		mismatch = "GridHint"
	case opt.MaxWLIters != 0 && opt.MaxWLIters != c.MaxWLIters:
		mismatch = "MaxWLIters"
	case opt.WLOverflowStop != 0 && wlStop != c.WLOverflowStop:
		mismatch = "WLOverflowStop"
	case opt.MaxRouteIters != 0 && opt.MaxRouteIters != c.MaxRouteIters:
		mismatch = "MaxRouteIters"
	case opt.StepsPerRouteIter != 0 && opt.StepsPerRouteIter != c.StepsPerRouteIter:
		mismatch = "StepsPerRouteIter"
	case opt.CongestionPatience != 0 && patience != c.CongestionPatience:
		mismatch = "CongestionPatience"
	case opt.SkipLegalize && !c.SkipLegalize:
		mismatch = "SkipLegalize"
	case opt.SkipDetailed && !c.SkipDetailed:
		mismatch = "SkipDetailed"
	case levels != 0 && levels != c.Levels:
		mismatch = "Levels"
	case opt.ClusterMaxSize != 0 && maxSize != c.ClusterMaxSize:
		mismatch = "ClusterMaxSize"
	}
	// The checkpoint stores the post-SetDefaults guard config, so apply the
	// same defaulting to the caller's before comparing.
	if mismatch == "" && opt.Guard != (guard.Config{}) {
		gcall := opt.Guard
		if gcall.Enabled() {
			gcall.SetDefaults()
		}
		if gcall != c.Guard {
			mismatch = "Guard"
		}
	}
	if mismatch != "" {
		return Options{}, fmt.Errorf("core: resume: Options.%s differs from the checkpointed run", mismatch)
	}
	return c.withEnvironment(opt), nil
}

// validateDesign checks the caller's design against the checkpoint's
// fingerprint (always the ORIGINAL design, even for a checkpoint captured at
// a coarse multilevel level).
func (ck *checkpoint) validateDesign(d *netlist.Design) error {
	if len(d.Cells) != ck.NumCells || len(d.Nets) != ck.NumNets ||
		len(d.Pins) != ck.NumPins || len(d.Rails) != ck.NumRails {
		return fmt.Errorf("core: resume: design has %d cells/%d nets/%d pins/%d rails, checkpoint was taken on %d/%d/%d/%d",
			len(d.Cells), len(d.Nets), len(d.Pins), len(d.Rails),
			ck.NumCells, ck.NumNets, ck.NumPins, ck.NumRails)
	}
	if d.Die != ck.Die {
		return fmt.Errorf("core: resume: design die %v differs from checkpointed %v", d.Die, ck.Die)
	}
	return nil
}

// restore rebuilds a runnable PlacementState from a flat-run checkpoint.
func (ck *checkpoint) restore(d *netlist.Design, opt Options) (*PlacementState, error) {
	if err := ck.validateDesign(d); err != nil {
		return nil, err
	}
	return ck.restoreInto(d, opt, 0, nil)
}

// restoreInto rebuilds the PlacementState for the design the cursor points
// at — the original design on a flat run, the level design of a multilevel
// one. Order matters: telemetry first (so metric handles resolved while
// building the runtime bind to the restored registry), then positions, then
// the deterministic model reconstruction, then the model state overlays.
func (ck *checkpoint) restoreInto(d *netlist.Design, opt Options, level int, ml *mlRun) (*PlacementState, error) {
	if len(ck.CellPos) != 2*len(d.Cells) {
		return nil, fmt.Errorf("core: resume: cellpos has %d values, want %d", len(ck.CellPos), 2*len(d.Cells))
	}

	res := ck.Res
	res.Mode = ck.Opt.Mode
	ps := &PlacementState{
		D:     d,
		Opt:   opt,
		level: level,
		ml:    ml,
		Res:   &res,
		cur:   ck.Cur,
		obs:   opt.Observer,
	}
	if ps.obs != nil {
		ps.tr = ps.obs.Tracer
		ps.restored = ps.obs.RestoreState(ck.Tel)
	}

	d.RestorePositions(ck.CellPos)
	// No record holds HPWLFinal: a run resumed past detailed recomputes it
	// from the positions, which round-trip exactly.
	if stageIndex(ck.Cur.stage) > stageIndex("detailed") {
		res.HPWLFinal = d.HPWL()
	}

	gpStage := ck.Cur.stage == "wirelength" || ck.Cur.stage == "routability"
	if gpStage {
		if !ck.HasGP {
			return nil, fmt.Errorf("core: resume: checkpoint cursor is at %q but the gp section is missing", ck.Cur.stage)
		}
		if err := ps.buildRuntime(); err != nil {
			return nil, err
		}
		if err := ps.restoreGP(&ck.GP); err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		// One Eval per Step, so the restored eval count — which indexes the
		// WA-gradient fault injection — is the serialized step count.
		ps.obj.evals = ck.GP.Nes.Steps
		if ps.grd != nil {
			ps.grd.retries = ck.GuardRetries
		}
		if len(ck.Fillers) != len(ps.dens.FillerPos) {
			return nil, fmt.Errorf("core: resume: checkpoint has %d filler coordinates, design yields %d",
				len(ck.Fillers), len(ps.dens.FillerPos))
		}
		if ck.HasLoop {
			if err := ps.restoreLoop(ck); err != nil {
				return nil, err
			}
		}
		// After SetInflations (restoreLoop) so the filler rebalance cannot
		// be confused with the restored coordinates.
		copy(ps.dens.FillerPos, ck.Fillers)
	}
	return ps, nil
}

// restoreLoop rebuilds the routability-loop runtime mid-loop: the inflator
// with its momentum memory, the PG-density policy output, and the
// congestion model's field (re-derived from the serialized utilization by
// the same deterministic Poisson solve the original run performed).
func (ps *PlacementState) restoreLoop(ck *checkpoint) error {
	if err := ps.buildLoopModels(); err != nil {
		return err
	}
	if err := inflation.Restore(ps.inf, ck.Infl); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	if err := ps.dens.SetInflations(ps.inf.Ratios()); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	if len(ck.PGRho) != ps.dens.NX*ps.dens.NY {
		return fmt.Errorf("core: resume: pgrho has %d bins, grid is %dx%d",
			len(ck.PGRho), ps.dens.NX, ps.dens.NY)
	}
	if err := ps.dens.SetPGDensity(ck.PGRho); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	ps.bestC = ck.BestC
	ps.stall = ck.Stall
	if len(ck.BestX) > 0 {
		if len(ck.BestX) != ps.obj.dim() {
			return fmt.Errorf("core: resume: bestx has %d values, optimizer dimension is %d",
				len(ck.BestX), ps.obj.dim())
		}
		ps.bestX = ck.BestX
	}
	if ck.HasCong {
		if ps.cong == nil {
			return fmt.Errorf("core: resume: checkpoint carries congestion state but the DC technique is off")
		}
		n := ps.grid.NX * ps.grid.NY
		if len(ck.CongUtil) != n || len(ck.CongCong) != n {
			return fmt.Errorf("core: resume: congestion state has %d/%d bins, grid is %dx%d",
				len(ck.CongUtil), len(ck.CongCong), ps.grid.NX, ps.grid.NY)
		}
		ps.cong.Restore(ck.CongUtil, ck.CongCong)
	}
	if len(ck.RtrPinCell) > 0 {
		sig := make([]int32, len(ck.RtrPinCell))
		for i, v := range ck.RtrPinCell {
			sig[i] = int32(v)
		}
		ps.rtr = route.NewRouter(ps.D, ps.grid)
		if err := ps.rtr.RestoreDecomposition(sig); err != nil {
			return fmt.Errorf("core: resume: %w", err)
		}
	}
	ps.loopReady = true
	return nil
}
