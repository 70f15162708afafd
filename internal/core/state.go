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
//	nmckpt 2
//	cursor <stage> <iter> <step>
//	multilevel <levels> <clustermaxsize> <toplevel> <level> <levelcells>   (only multilevel runs)
//	mode <int>
//	tech <mci> <dc> <dpa> <alpha> <scheme|-> <thresh> <fixedl2> <vmid>
//	opts <grid> <maxwl> <wlstop> <maxroute> <steps> <patience> <skipleg> <skipdet>
//	guard <policy> <maxretries> <backoff> <checkevery> <retries>   (only when guarded)
//	design <cells> <nets> <pins> <rails> <lox> <loy> <hix> <hiy>
//	result <wliters> <routeiters> <finaloverflow> <hpwlglobal> <hpwllegal> <legdisp>
//	vec conghist / cellpos / nes.* / fillers / infl.* / bestx / pgrho / cong.* / rtr.pincell
//	gp <gamma> <lambda1> <lambda2> <lastwl> <lastoverflow> <lastwlgradl1>
//	nesterov <a> <first> <steps> <scale>
//	loop <bestc> <stall>
//	infl <scheme> <avgprev> <t>
//	cong <present>
//	mlwarm <set> <boost> <overflow> <l1init>   (only when Options.MLWarmStart)
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
	"strconv"
	"strings"

	"time"

	"repro/internal/geom"
	"repro/internal/guard"
	"repro/internal/inflation"
	"repro/internal/nesterov"
	"repro/internal/netlist"
	"repro/internal/pgrail"
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

	// Multilevel run identity (Options.Levels ≥ 2). The design/opts records
	// keep describing the ORIGINAL design and the caller's options; MLLevel
	// pinpoints the hierarchy level the cursor (and CellPos) belong to, and
	// MLCells its cell count, validated against the rebuilt hierarchy on
	// resume. Flat runs serialize none of this, keeping their checkpoints
	// byte-identical to the pre-multilevel format.
	ML                                        bool
	MLLevels, MLMaxW, MLTop, MLLevel, MLCells int

	// Options fingerprint (post-setDefaults values; Workers/Log/Observer
	// and the checkpoint fields themselves are intentionally absent — they
	// may differ between the two run halves without affecting results).
	Mode               Mode
	Tech               Techniques
	GridHint           int
	MaxWLIters         int
	WLOverflowStop     float64
	MaxRouteIters      int
	StepsPerRouteIter  int
	CongestionPatience int
	SkipLegalize       bool
	SkipDetailed       bool

	// Guard configuration (post-SetDefaults) and the recoveries already
	// used, so a resumed run keeps honouring the same retry budget. The
	// zero-value config (policy Off) is not serialized at all, keeping
	// unguarded checkpoints byte-identical to the pre-guard format.
	GuardCfg     guard.Config
	GuardRetries int

	// Design fingerprint (the netlist itself is not embedded; resume takes
	// the same design file and validates it against this).
	NumCells, NumNets, NumPins, NumRails int
	Die                                  geom.Rect

	// Partial result.
	WLIters, RouteIters                                    int
	FinalOverflow, HPWLGlobal, HPWLLegalized, LegalizeDisp float64
	CongestionHistory                                      []float64

	// All cell centers, x/y interleaved in cell index order.
	CellPos []float64

	// Global-placement state (cursor inside wirelength/routability).
	HasGP                                                 bool
	Gamma, Lambda1, Lambda2, LastWL, LastOv, LastWLGradL1 float64
	Nes                                                   nesterov.State
	Fillers                                               []float64

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

	// Multilevel warm-start hand-off (Options.MLWarmStart): the mlRun's
	// captured coarse-level state plus the capturing level's pre-boost λ₁
	// initialization, so a resume mid-phase-1 can still compute the boost
	// (λ₁/λ₁Init) at stage end. Absent when the option is off.
	MLWarm        bool
	MLWarmSet     bool
	MLWarmBoost   float64
	MLWarmOv      float64
	MLLambda1Init float64

	// Telemetry continuation state (present when the run had an Observer).
	Tel *telemetry.ObserverState
}

// capture snapshots the placement state at the current cursor. Everything
// is deep-copied; the checkpoint shares nothing with the live run.
func (ps *PlacementState) capture() *checkpoint {
	d, opt := ps.D, &ps.Opt
	fingerD := d
	if ps.ml != nil {
		// A multilevel checkpoint is identified by the run the user started:
		// the original design and the outer options. The level pipeline's
		// derived options (coarse grid, skip flags) are reconstructed on
		// resume, never serialized.
		fingerD = ps.ml.orig
		opt = &ps.ml.outer
	}
	ck := &checkpoint{
		Cur:                ps.cur,
		Mode:               opt.Mode,
		Tech:               opt.Tech,
		GridHint:           opt.GridHint,
		MaxWLIters:         opt.MaxWLIters,
		WLOverflowStop:     opt.WLOverflowStop,
		MaxRouteIters:      opt.MaxRouteIters,
		StepsPerRouteIter:  opt.StepsPerRouteIter,
		CongestionPatience: opt.CongestionPatience,
		SkipLegalize:       opt.SkipLegalize,
		SkipDetailed:       opt.SkipDetailed,

		GuardCfg: opt.Guard,

		NumCells: len(fingerD.Cells),
		NumNets:  len(fingerD.Nets),
		NumPins:  len(fingerD.Pins),
		NumRails: len(fingerD.Rails),
		Die:      fingerD.Die,

		WLIters:           ps.Res.WLIters,
		RouteIters:        ps.Res.RouteIters,
		FinalOverflow:     ps.Res.FinalOverflow,
		HPWLGlobal:        ps.Res.HPWLGlobal,
		HPWLLegalized:     ps.Res.HPWLLegalized,
		LegalizeDisp:      ps.Res.LegalizeDisp,
		CongestionHistory: append([]float64(nil), ps.Res.CongestionHistory...),
	}
	if ps.ml != nil {
		ck.ML = true
		ck.MLLevels = ps.ml.levels
		ck.MLMaxW = ps.ml.maxW
		ck.MLTop = ps.ml.topLevel
		ck.MLLevel = ps.level
		ck.MLCells = len(d.Cells)
	}
	if ps.grd != nil {
		ck.GuardRetries = ps.grd.retries
	}
	if opt.MLWarmStart {
		ck.MLWarm = true
		if ps.ml != nil {
			ck.MLWarmSet = ps.ml.warmSet
			ck.MLWarmBoost = ps.ml.warmBoost
			ck.MLWarmOv = ps.ml.warmOverflow
		}
	}
	ck.CellPos = make([]float64, 0, 2*len(d.Cells))
	for i := range d.Cells {
		ck.CellPos = append(ck.CellPos, d.Cells[i].X, d.Cells[i].Y)
	}

	gpStage := ps.cur.stage == "wirelength" || ps.cur.stage == "routability"
	if gpStage && ps.optm != nil {
		ck.HasGP = true
		ck.Gamma = ps.wl.Gamma()
		ck.Lambda1 = ps.obj.lambda1
		ck.Lambda2 = ps.obj.lambda2
		ck.LastWL = ps.obj.lastWL
		ck.LastOv = ps.obj.lastOverflow
		ck.LastWLGradL1 = ps.obj.lastWLGradL1
		ck.Nes = ps.optm.State()
		ck.Fillers = append([]float64(nil), ps.dens.FillerPos...)
		ck.MLLambda1Init = ps.obj.lambda1Init
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
	fmt.Fprintf(bw, "cursor %s %d %d\n", ck.Cur.stage, ck.Cur.iter, ck.Cur.step)
	if ck.ML {
		fmt.Fprintf(bw, "multilevel %d %d %d %d %d\n",
			ck.MLLevels, ck.MLMaxW, ck.MLTop, ck.MLLevel, ck.MLCells)
	}
	fmt.Fprintf(bw, "mode %d\n", int(ck.Mode))
	scheme := ck.Tech.InflationScheme
	if scheme == "" {
		scheme = "-"
	}
	fmt.Fprintf(bw, "tech %s %s %s %g %s %g %g %s\n",
		b01(ck.Tech.MCI), b01(ck.Tech.DC), b01(ck.Tech.DPA),
		ck.Tech.MomentumAlpha, scheme, ck.Tech.CongestionThreshold,
		ck.Tech.FixedLambda2, b01(ck.Tech.VirtualAtMidpoint))
	fmt.Fprintf(bw, "opts %d %d %g %d %d %d %s %s\n",
		ck.GridHint, ck.MaxWLIters, ck.WLOverflowStop, ck.MaxRouteIters,
		ck.StepsPerRouteIter, ck.CongestionPatience,
		b01(ck.SkipLegalize), b01(ck.SkipDetailed))
	if ck.GuardCfg.Enabled() {
		fmt.Fprintf(bw, "guard %s %d %g %d %d\n",
			ck.GuardCfg.Policy, ck.GuardCfg.MaxRetries, ck.GuardCfg.Backoff,
			ck.GuardCfg.CheckEvery, ck.GuardRetries)
	}
	fmt.Fprintf(bw, "design %d %d %d %d %g %g %g %g\n",
		ck.NumCells, ck.NumNets, ck.NumPins, ck.NumRails,
		ck.Die.Lo.X, ck.Die.Lo.Y, ck.Die.Hi.X, ck.Die.Hi.Y)
	fmt.Fprintf(bw, "result %d %d %g %g %g %g\n",
		ck.WLIters, ck.RouteIters, ck.FinalOverflow, ck.HPWLGlobal,
		ck.HPWLLegalized, ck.LegalizeDisp)
	writeVec(bw, "conghist", ck.CongestionHistory)
	writeVec(bw, "cellpos", ck.CellPos)

	if ck.HasGP {
		fmt.Fprintf(bw, "gp %g %g %g %g %g %g\n",
			ck.Gamma, ck.Lambda1, ck.Lambda2, ck.LastWL, ck.LastOv, ck.LastWLGradL1)
		fmt.Fprintf(bw, "nesterov %g %s %d %g\n", ck.Nes.A, b01(ck.Nes.First), ck.Nes.Steps, ck.Nes.Scale)
		writeVec(bw, "nes.u", ck.Nes.U)
		writeVec(bw, "nes.v", ck.Nes.V)
		writeVec(bw, "nes.vprev", ck.Nes.VPrev)
		writeVec(bw, "nes.gprev", ck.Nes.GPrev)
		writeVec(bw, "fillers", ck.Fillers)
	}
	if ck.HasLoop {
		fmt.Fprintf(bw, "loop %g %d\n", ck.BestC, ck.Stall)
		fmt.Fprintf(bw, "infl %s %g %d\n", ck.Infl.Scheme, ck.Infl.AvgPrev, ck.Infl.T)
		writeVec(bw, "infl.r", ck.Infl.R)
		if ck.Infl.Scheme == "momentum" {
			writeVec(bw, "infl.dr", ck.Infl.DR)
			writeVec(bw, "infl.cprev", ck.Infl.CPrev)
		}
		writeVec(bw, "bestx", ck.BestX)
		writeVec(bw, "pgrho", ck.PGRho)
		fmt.Fprintf(bw, "cong %s\n", b01(ck.HasCong))
		if ck.HasCong {
			writeVec(bw, "cong.util", ck.CongUtil)
			writeVec(bw, "cong.cong", ck.CongCong)
		}
		writeVec(bw, "rtr.pincell", ck.RtrPinCell)
	}
	if ck.MLWarm {
		fmt.Fprintf(bw, "mlwarm %s %g %g %g\n",
			b01(ck.MLWarmSet), ck.MLWarmBoost, ck.MLWarmOv, ck.MLLambda1Init)
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

// writeVec writes one vector record. Each element is the shortest 'g' form
// that reads back to the same float64, the bytes fmt's " %g" gives.
func writeVec(bw *bytes.Buffer, name string, v []float64) {
	fmt.Fprintf(bw, "vec %s %d", name, len(v))
	for _, x := range v {
		b := append(bw.AvailableBuffer(), ' ')
		bw.Write(strconv.AppendFloat(b, x, 'g', -1, 64))
	}
	bw.WriteByte('\n')
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
// as corruption, except for a format mismatch: an unsupported version or a
// record this build does not know. Another build's writer produces those
// from sound state, and the .prev file it rotated has the same format, so
// they are plain errors.
func parseCheckpoint(body []byte) (*checkpoint, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	// Vectors are single lines of 2N floats; allow very long lines.
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	ck := &checkpoint{}
	sawVersion, sawEnd := false, false
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
		p := &fieldParser{f: f[1:], what: f[0]}
		switch f[0] {
		case "nmckpt":
			if v := p.nextInt(); p.err == nil && v != checkpointVersion {
				return nil, fmt.Errorf("core: checkpoint version %d not supported", v)
			}
			sawVersion = true
		case "cursor":
			ck.Cur.stage = p.token()
			ck.Cur.iter = p.nextInt()
			ck.Cur.step = p.nextInt()
		case "multilevel":
			ck.ML = true
			ck.MLLevels = p.nextInt()
			ck.MLMaxW = p.nextInt()
			ck.MLTop = p.nextInt()
			ck.MLLevel = p.nextInt()
			ck.MLCells = p.nextInt()
		case "mode":
			ck.Mode = Mode(p.nextInt())
		case "tech":
			ck.Tech.MCI = p.nextBool()
			ck.Tech.DC = p.nextBool()
			ck.Tech.DPA = p.nextBool()
			ck.Tech.MomentumAlpha = p.nextFloat()
			if s := p.token(); s != "-" {
				ck.Tech.InflationScheme = s
			}
			ck.Tech.CongestionThreshold = p.nextFloat()
			ck.Tech.FixedLambda2 = p.nextFloat()
			ck.Tech.VirtualAtMidpoint = p.nextBool()
		case "opts":
			ck.GridHint = p.nextInt()
			ck.MaxWLIters = p.nextInt()
			ck.WLOverflowStop = p.nextFloat()
			ck.MaxRouteIters = p.nextInt()
			ck.StepsPerRouteIter = p.nextInt()
			ck.CongestionPatience = p.nextInt()
			ck.SkipLegalize = p.nextBool()
			ck.SkipDetailed = p.nextBool()
		case "guard":
			pol, perr := guard.ParsePolicy(p.token())
			if perr != nil && p.err == nil {
				p.err = perr
			}
			ck.GuardCfg.Policy = pol
			ck.GuardCfg.MaxRetries = p.nextInt()
			ck.GuardCfg.Backoff = p.nextFloat()
			ck.GuardCfg.CheckEvery = p.nextInt()
			ck.GuardRetries = p.nextInt()
		case "design":
			ck.NumCells = p.nextInt()
			ck.NumNets = p.nextInt()
			ck.NumPins = p.nextInt()
			ck.NumRails = p.nextInt()
			lox, loy := p.nextFloat(), p.nextFloat()
			hix, hiy := p.nextFloat(), p.nextFloat()
			ck.Die = geom.NewRect(lox, loy, hix, hiy)
		case "result":
			ck.WLIters = p.nextInt()
			ck.RouteIters = p.nextInt()
			ck.FinalOverflow = p.nextFloat()
			ck.HPWLGlobal = p.nextFloat()
			ck.HPWLLegalized = p.nextFloat()
			ck.LegalizeDisp = p.nextFloat()
		case "vec":
			name := p.token()
			n := p.nextInt()
			if p.err != nil {
				return nil, corruptf("checkpoint line %d: %v", lineNo, p.err)
			}
			// The declared count sizes the allocation; cap it by the tokens
			// actually on the line so a corrupted count can neither allocate
			// gigabytes nor spin through a billion empty parses.
			if rest := len(p.f) - p.i; n < 0 || n > rest {
				return nil, corruptf("checkpoint line %d: vec %s declares %d values, line carries %d",
					lineNo, name, n, rest)
			}
			var v []float64
			if n > 0 {
				v = make([]float64, 0, n)
				for k := 0; k < n; k++ {
					v = append(v, p.nextFloat())
				}
			}
			if err := ck.assignVec(name, v); err != nil {
				return nil, corruptf("checkpoint line %d: %v", lineNo, err)
			}
		case "gp":
			ck.HasGP = true
			ck.Gamma = p.nextFloat()
			ck.Lambda1 = p.nextFloat()
			ck.Lambda2 = p.nextFloat()
			ck.LastWL = p.nextFloat()
			ck.LastOv = p.nextFloat()
			ck.LastWLGradL1 = p.nextFloat()
		case "nesterov":
			ck.Nes.A = p.nextFloat()
			ck.Nes.First = p.nextBool()
			ck.Nes.Steps = p.nextInt()
			ck.Nes.Scale = p.nextFloat()
		case "loop":
			ck.HasLoop = true
			ck.BestC = p.nextFloat()
			ck.Stall = p.nextInt()
		case "infl":
			ck.Infl.Scheme = p.token()
			ck.Infl.AvgPrev = p.nextFloat()
			ck.Infl.T = p.nextInt()
		case "cong":
			ck.HasCong = p.nextBool()
		case "mlwarm":
			ck.MLWarm = true
			ck.MLWarmSet = p.nextBool()
			ck.MLWarmBoost = p.nextFloat()
			ck.MLWarmOv = p.nextFloat()
			ck.MLLambda1Init = p.nextFloat()
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
			return nil, fmt.Errorf("core: checkpoint line %d: unknown record %q (format of another build)", lineNo, f[0])
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
	if stageIndex(ck.Cur.stage) >= len(stageOrder) {
		return nil, corruptf("checkpoint has unknown cursor stage %q", ck.Cur.stage)
	}
	if ck.ML && (ck.MLLevels < 2 || ck.MLMaxW < 0 || ck.MLTop < 1 ||
		ck.MLLevel < 0 || ck.MLLevel > ck.MLTop || ck.MLCells <= 0) {
		return nil, corruptf("checkpoint has inconsistent multilevel record %d %d %d %d %d",
			ck.MLLevels, ck.MLMaxW, ck.MLTop, ck.MLLevel, ck.MLCells)
	}
	return ck, nil
}

func (ck *checkpoint) assignVec(name string, v []float64) error {
	switch name {
	case "conghist":
		ck.CongestionHistory = v
	case "cellpos":
		ck.CellPos = v
	case "nes.u":
		ck.Nes.U = v
	case "nes.v":
		ck.Nes.V = v
	case "nes.vprev":
		ck.Nes.VPrev = v
	case "nes.gprev":
		ck.Nes.GPrev = v
	case "fillers":
		ck.Fillers = v
	case "infl.r":
		ck.Infl.R = v
	case "infl.dr":
		ck.Infl.DR = v
	case "infl.cprev":
		ck.Infl.CPrev = v
	case "bestx":
		ck.BestX = v
	case "pgrho":
		ck.PGRho = v
	case "cong.util":
		ck.CongUtil = v
	case "cong.cong":
		ck.CongCong = v
	case "rtr.pincell":
		ck.RtrPinCell = v
	default:
		return fmt.Errorf("unknown vector %q", name)
	}
	return nil
}

// ---- Resume ----

// ResumeContext continues a checkpointed run. The caller supplies the SAME
// design the original run was started on (validated against the checkpoint
// fingerprint) and an Options whose run-defining fields either match the
// checkpointed ones or are left zero (the checkpoint is then authoritative).
// Only the environment fields — Workers, Log, Observer, CheckpointPath,
// CheckpointAfter — are taken from opt unconditionally; any Workers setting
// yields the identical placement. The Observer, when given, must be fresh:
// the checkpoint restores the interrupted run's telemetry state into it so
// the resumed trace is a byte-exact continuation.
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
		RouteIters: ck.RouteIters,
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
	if err := validateCheckpointOpts(&merged); err != nil {
		return nil, err
	}
	if err := merged.Guard.Validate(); err != nil {
		return nil, err
	}
	if err := validatePlaceable(d); err != nil {
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
	merged := Options{
		Mode:               ck.Mode,
		Tech:               ck.Tech,
		GridHint:           ck.GridHint,
		MaxWLIters:         ck.MaxWLIters,
		WLOverflowStop:     ck.WLOverflowStop,
		MaxRouteIters:      ck.MaxRouteIters,
		StepsPerRouteIter:  ck.StepsPerRouteIter,
		CongestionPatience: ck.CongestionPatience,
		SkipLegalize:       ck.SkipLegalize,
		SkipDetailed:       ck.SkipDetailed,
		Guard:              ck.GuardCfg,
		Levels:             ck.MLLevels,
		ClusterMaxSize:     ck.MLMaxW,
		MLWarmStart:        ck.MLWarm,

		Workers:                 opt.Workers,
		Log:                     opt.Log,
		Observer:                opt.Observer,
		CheckpointPath:          opt.CheckpointPath,
		CheckpointAfter:         opt.CheckpointAfter,
		BoundaryHook:            opt.BoundaryHook,
		DisableCancelCheckpoint: opt.DisableCancelCheckpoint,
		FaultInjector:           opt.FaultInjector,
	}
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
	case opt.Mode != 0 && opt.Mode != ck.Mode:
		mismatch = "Mode"
	case opt.Tech != (Techniques{}) && opt.Tech != ck.Tech:
		mismatch = "Tech"
	case opt.GridHint != 0 && opt.GridHint != ck.GridHint:
		mismatch = "GridHint"
	case opt.MaxWLIters != 0 && opt.MaxWLIters != ck.MaxWLIters:
		mismatch = "MaxWLIters"
	case opt.WLOverflowStop != 0 && wlStop != ck.WLOverflowStop:
		mismatch = "WLOverflowStop"
	case opt.MaxRouteIters != 0 && opt.MaxRouteIters != ck.MaxRouteIters:
		mismatch = "MaxRouteIters"
	case opt.StepsPerRouteIter != 0 && opt.StepsPerRouteIter != ck.StepsPerRouteIter:
		mismatch = "StepsPerRouteIter"
	case opt.CongestionPatience != 0 && patience != ck.CongestionPatience:
		mismatch = "CongestionPatience"
	case opt.SkipLegalize && !ck.SkipLegalize:
		mismatch = "SkipLegalize"
	case opt.SkipDetailed && !ck.SkipDetailed:
		mismatch = "SkipDetailed"
	case levels != 0 && levels != ck.MLLevels:
		mismatch = "Levels"
	case opt.ClusterMaxSize != 0 && maxSize != ck.MLMaxW:
		mismatch = "ClusterMaxSize"
	case opt.MLWarmStart && !ck.MLWarm:
		mismatch = "MLWarmStart"
	}
	// The checkpoint stores the post-SetDefaults guard config, so apply the
	// same defaulting to the caller's before comparing.
	if mismatch == "" && opt.Guard != (guard.Config{}) {
		gcall := opt.Guard
		if gcall.Enabled() {
			gcall.SetDefaults()
		}
		if gcall != ck.GuardCfg {
			mismatch = "Guard"
		}
	}
	if mismatch != "" {
		return Options{}, fmt.Errorf("core: resume: Options.%s differs from the checkpointed run", mismatch)
	}
	return merged, nil
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

	ps := &PlacementState{
		D:     d,
		Opt:   opt,
		level: level,
		ml:    ml,
		Res: &Result{
			Mode:              ck.Mode,
			WLIters:           ck.WLIters,
			RouteIters:        ck.RouteIters,
			FinalOverflow:     ck.FinalOverflow,
			HPWLGlobal:        ck.HPWLGlobal,
			HPWLLegalized:     ck.HPWLLegalized,
			LegalizeDisp:      ck.LegalizeDisp,
			CongestionHistory: ck.CongestionHistory,
		},
		cur: ck.Cur,
		obs: opt.Observer,
	}
	if ps.obs != nil {
		ps.tr = ps.obs.Tracer
		ps.restored = ps.obs.RestoreState(ck.Tel)
	}

	for i := range d.Cells {
		d.Cells[i].X = ck.CellPos[2*i]
		d.Cells[i].Y = ck.CellPos[2*i+1]
	}

	gpStage := ck.Cur.stage == "wirelength" || ck.Cur.stage == "routability"
	if gpStage {
		if !ck.HasGP {
			return nil, fmt.Errorf("core: resume: checkpoint cursor is at %q but the gp section is missing", ck.Cur.stage)
		}
		if err := ps.buildRuntime(); err != nil {
			return nil, err
		}
		ps.wl.SetGamma(ck.Gamma)
		ps.obj.lambda1 = ck.Lambda1
		ps.obj.lambda2 = ck.Lambda2
		ps.obj.lastWL = ck.LastWL
		ps.obj.lastOverflow = ck.LastOv
		ps.obj.lastWLGradL1 = ck.LastWLGradL1
		if err := ps.optm.SetState(ck.Nes); err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		// One Eval per Step, so the restored eval count — which indexes the
		// WA-gradient fault injection — is the serialized step count.
		ps.obj.evals = ck.Nes.Steps
		ps.obj.lambda1Init = ck.MLLambda1Init
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
	d, opt := ps.D, &ps.Opt
	inf, err := newInflator(d, opt)
	if err != nil {
		return err
	}
	if err := inflation.Restore(inf, ck.Infl); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	ps.inf = inf
	ps.bins = pgrail.BinGrid{NX: ps.dens.NX, NY: ps.dens.NY, Die: d.Die,
		BinW: ps.dens.BinW(), BinH: ps.dens.BinH()}
	ps.dynamicPG = opt.Mode == ModeOurs && opt.Tech.DPA
	if ps.dynamicPG {
		ps.selected = pgrail.SelectRails(d)
	}
	if err := ps.dens.SetInflations(inf.Ratios()); err != nil {
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
		ps.rtr = route.NewRouter(d, ps.grid)
		if err := ps.rtr.RestoreDecomposition(sig); err != nil {
			return fmt.Errorf("core: resume: %w", err)
		}
	}
	ps.loopReady = true
	return nil
}
