package flightrec

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/route"
	"repro/internal/telemetry/health"
)

// dumpVersion versions the flight-recorder section layouts inside the
// checkpoint container (the container itself carries its own version).
const dumpVersion = 1

// Section names inside the dump container. The "fr" prefix keeps them
// disjoint from the simulation-state sections a keyframe uses, since both
// live in the same container format.
const (
	secMeta      = "frmeta"
	secRing      = "frring"
	secFaults    = "frfaults"
	secHealth    = "frhealth"
	secSample    = "frsample"
	secKeyframes = "frkeyframes"
)

// encode freezes the recorder's window into a dump container image.
func (r *Recorder) encode(cycle int64, reason string) []byte {
	b := checkpoint.NewBuilder(r.cfg.ConfigHash, cycle)

	e := b.Section(secMeta)
	e.U32(dumpVersion)
	e.Int(len(r.ring))
	e.I64(r.every)
	e.I64(r.kfEvery)
	e.I64(cycle)
	e.String(reason)
	e.String(r.cfg.SpecKind)
	e.Bytes(r.cfg.SpecJSON)
	if r.kfErr != nil {
		e.String(r.kfErr.Error())
	} else {
		e.String("")
	}

	e = b.Section(secRing)
	e.U32(uint32(r.count))
	// Oldest record first: with a full ring the oldest lives at next.
	start := 0
	if r.count == len(r.ring) {
		start = r.next
	}
	for i := 0; i < r.count; i++ {
		encodeRecord(e, &r.ring[(start+i)%len(r.ring)])
	}

	e = b.Section(secFaults)
	e.U32(uint32(len(r.faultLog)))
	for i := range r.faultLog {
		f := &r.faultLog[i]
		e.I64(f.Cycle)
		e.U8(f.Kind)
		e.U32(uint32(f.A))
		e.U32(uint32(f.B))
	}
	e.I64(r.faultDrops)

	e = b.Section(secHealth)
	e.U32(uint32(len(r.healthLog)))
	for i := range r.healthLog {
		ev := &r.healthLog[i]
		e.I64(ev.Cycle)
		e.String(ev.Detector)
		e.Bool(ev.Healthy)
		e.String(ev.Detail)
	}
	e.I64(r.healthDrops)

	e = b.Section(secSample)
	encodeSample(e, &r.last)

	e = b.Section(secKeyframes)
	e.U32(uint32(len(r.keyframes)))
	for i := range r.keyframes {
		e.I64(r.keyframes[i].Cycle)
		e.Bytes(r.keyframes[i].Data)
	}

	return b.Bytes()
}

func encodeRecord(e *checkpoint.Encoder, rec *Record) {
	e.I64(rec.Cycle)
	e.U32(rec.Injected)
	e.U32(rec.Ejected)
	e.U32(rec.Routed)
	e.U32(rec.SwitchMoves)
	e.U32(rec.BypassMoves)
	e.U32(rec.ArbLosses)
	e.U32(rec.CreditStalls)
	e.U32(rec.StageStalls)
	e.U32(rec.LinkFlits)
	e.U32(rec.HeadFlits)
	e.U32(rec.Credits)
	e.U32(rec.DeliveredFlits)
	e.U32(rec.DeliveredPackets)
	e.U32(rec.AbortedPackets)
	e.U32(rec.Generated)
	e.U32(rec.BufOcc)
	e.U32(rec.LinkInFlight)
	e.U32(rec.DeadLinks)
	e.U32(rec.FaultsApplied)
}

// recordWire is the encoded size of one Record, for Decoder.Count.
const recordWire = 8 + 19*4

func decodeRecord(d *checkpoint.Decoder, rec *Record) {
	rec.Cycle = d.I64()
	rec.Injected = d.U32()
	rec.Ejected = d.U32()
	rec.Routed = d.U32()
	rec.SwitchMoves = d.U32()
	rec.BypassMoves = d.U32()
	rec.ArbLosses = d.U32()
	rec.CreditStalls = d.U32()
	rec.StageStalls = d.U32()
	rec.LinkFlits = d.U32()
	rec.HeadFlits = d.U32()
	rec.Credits = d.U32()
	rec.DeliveredFlits = d.U32()
	rec.DeliveredPackets = d.U32()
	rec.AbortedPackets = d.U32()
	rec.Generated = d.U32()
	rec.BufOcc = d.U32()
	rec.LinkInFlight = d.U32()
	rec.DeadLinks = d.U32()
	rec.FaultsApplied = d.U32()
}

func encodeSample(e *checkpoint.Encoder, s *TriggerSample) {
	e.I64(s.Cycle)
	e.I64(s.BufOcc)
	e.I64(s.Generated)
	e.I64(s.EjectedFlits)
	e.Int(s.DeadLinks)
	e.U32(uint32(len(s.Waiting)))
	for i := range s.Waiting {
		w := &s.Waiting[i]
		e.Int(w.Tile)
		e.U8(uint8(w.Port))
		e.Int(w.VC)
		e.I64(w.Age)
		e.Bool(w.Routed)
		e.U8(uint8(w.OutPort))
		e.Int(w.OutVC)
		e.Int(w.DownTile)
		e.Bool(w.Stuck)
		e.Bool(w.Stalled)
	}
	e.U32(uint32(len(s.HotLinks)))
	for i := range s.HotLinks {
		l := &s.HotLinks[i]
		e.Int(l.Index)
		e.Int(l.From)
		e.Int(l.To)
		e.String(l.Dir)
		e.I64(l.Flits)
	}
}

func decodeSample(d *checkpoint.Decoder, s *TriggerSample) {
	s.Cycle = d.I64()
	s.BufOcc = d.I64()
	s.Generated = d.I64()
	s.EjectedFlits = d.I64()
	s.DeadLinks = d.Int()
	nw := d.Count(8 + 1 + 8 + 8 + 1 + 1 + 8 + 8 + 1 + 1)
	s.Waiting = make([]health.VCWait, nw)
	for i := range s.Waiting {
		w := &s.Waiting[i]
		w.Tile = d.Int()
		w.Port = route.Dir(d.U8())
		w.VC = d.Int()
		w.Age = d.I64()
		w.Routed = d.Bool()
		w.OutPort = route.Dir(d.U8())
		w.OutVC = d.Int()
		w.DownTile = d.Int()
		w.Stuck = d.Bool()
		w.Stalled = d.Bool()
	}
	nh := d.Count(8 + 8 + 8 + 4 + 8)
	s.HotLinks = make([]health.LinkLoad, nh)
	for i := range s.HotLinks {
		l := &s.HotLinks[i]
		l.Index = d.Int()
		l.From = d.Int()
		l.To = d.Int()
		l.Dir = d.String()
		l.Flits = d.I64()
	}
}

// Dump is a parsed flight-recorder dump: everything cmd/nocpost needs to
// reconstruct, diff, and attribute.
type Dump struct {
	ConfigHash uint64
	Cycle      int64 // trigger cycle (completed cycles at dump time)
	Reason     string

	Window  int   // ring capacity the recorder ran with
	Every   int64 // health-sampling cadence
	KfEvery int64 // keyframe cadence

	SpecKind string
	SpecJSON []byte

	// KeyframeErr is the reason keyframes were disabled ("" when they
	// worked); replay then starts from a cycle-0 rebuild.
	KeyframeErr string

	// Records are the per-cycle deltas, oldest first, contiguous cycles.
	Records []Record

	Faults     []FaultEvent
	FaultDrops int64

	Health      []health.Event
	HealthDrops int64

	// Sample is the newest health-sample attribution material before the
	// trigger: the waiting-VC set and hottest links the live detectors saw.
	Sample TriggerSample

	// Keyframes are the retained full-state checkpoints, oldest first.
	Keyframes []Keyframe
}

// ParseDump validates and decodes a dump image.
func ParseDump(data []byte) (*Dump, error) {
	f, err := checkpoint.Parse(data)
	if err != nil {
		return nil, err
	}
	dp := &Dump{ConfigHash: f.ConfigHash}

	d, err := f.Section(secMeta)
	if err != nil {
		return nil, err
	}
	if v := d.U32(); d.Err() == nil && v != dumpVersion {
		return nil, fmt.Errorf("flightrec: unsupported dump version %d (want %d)", v, dumpVersion)
	}
	dp.Window = d.Int()
	dp.Every = d.I64()
	dp.KfEvery = d.I64()
	dp.Cycle = d.I64()
	dp.Reason = d.String()
	dp.SpecKind = d.String()
	dp.SpecJSON = append([]byte(nil), d.Bytes()...)
	dp.KeyframeErr = d.String()
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("flightrec: %s: %w", secMeta, err)
	}

	d, err = f.Section(secRing)
	if err != nil {
		return nil, err
	}
	n := d.Count(recordWire)
	dp.Records = make([]Record, n)
	for i := range dp.Records {
		decodeRecord(d, &dp.Records[i])
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("flightrec: %s: %w", secRing, err)
	}
	// RecordAt and Range index the ring by cycle offset.
	for i := 1; i < len(dp.Records); i++ {
		if dp.Records[i].Cycle != dp.Records[i-1].Cycle+1 {
			return nil, fmt.Errorf("flightrec: %s: record %d breaks the cycle sequence (records must be contiguous)", secRing, i)
		}
	}

	d, err = f.Section(secFaults)
	if err != nil {
		return nil, err
	}
	n = d.Count(8 + 1 + 4 + 4)
	dp.Faults = make([]FaultEvent, n)
	for i := range dp.Faults {
		fe := &dp.Faults[i]
		fe.Cycle = d.I64()
		fe.Kind = d.U8()
		fe.A = int32(d.U32())
		fe.B = int32(d.U32())
	}
	dp.FaultDrops = d.I64()
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("flightrec: %s: %w", secFaults, err)
	}

	d, err = f.Section(secHealth)
	if err != nil {
		return nil, err
	}
	n = d.Count(8 + 4 + 1 + 4)
	dp.Health = make([]health.Event, n)
	for i := range dp.Health {
		ev := &dp.Health[i]
		ev.Cycle = d.I64()
		ev.Detector = d.String()
		ev.Healthy = d.Bool()
		ev.Detail = d.String()
	}
	dp.HealthDrops = d.I64()
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("flightrec: %s: %w", secHealth, err)
	}

	d, err = f.Section(secSample)
	if err != nil {
		return nil, err
	}
	decodeSample(d, &dp.Sample)
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("flightrec: %s: %w", secSample, err)
	}

	d, err = f.Section(secKeyframes)
	if err != nil {
		return nil, err
	}
	n = d.Count(8 + 4)
	dp.Keyframes = make([]Keyframe, n)
	for i := range dp.Keyframes {
		dp.Keyframes[i].Cycle = d.I64()
		dp.Keyframes[i].Data = append([]byte(nil), d.Bytes()...)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("flightrec: %s: %w", secKeyframes, err)
	}
	// KeyframeBefore binary-searches the keyframes by cycle.
	for i := 1; i < len(dp.Keyframes); i++ {
		if dp.Keyframes[i].Cycle < dp.Keyframes[i-1].Cycle {
			return nil, fmt.Errorf("flightrec: %s: keyframe %d precedes its predecessor (keyframes must be oldest first)", secKeyframes, i)
		}
	}

	return dp, nil
}

// LoadDump reads and parses a dump file.
func LoadDump(path string) (*Dump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dp, err := ParseDump(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return dp, nil
}

// FirstCycle reports the oldest recorded cycle (0 with an empty ring).
func (dp *Dump) FirstCycle() int64 {
	if len(dp.Records) == 0 {
		return 0
	}
	return dp.Records[0].Cycle
}

// LastCycle reports the newest recorded cycle (0 with an empty ring).
func (dp *Dump) LastCycle() int64 {
	if len(dp.Records) == 0 {
		return 0
	}
	return dp.Records[len(dp.Records)-1].Cycle
}

// RecordAt returns the delta record for a completed cycle, or nil when the
// cycle is outside the recorded window. Records are contiguous, so this is
// an index computation, not a search.
func (dp *Dump) RecordAt(cycle int64) *Record {
	if len(dp.Records) == 0 {
		return nil
	}
	i := cycle - dp.Records[0].Cycle
	if i < 0 || i >= int64(len(dp.Records)) {
		return nil
	}
	return &dp.Records[i]
}

// Range returns the records for completed cycles in [from, to], clipped to
// the recorded window. The slice aliases dp.Records.
func (dp *Dump) Range(from, to int64) []Record {
	if len(dp.Records) == 0 || to < from {
		return nil
	}
	first := dp.Records[0].Cycle
	lo := from - first
	hi := to - first + 1
	if lo < 0 {
		lo = 0
	}
	if hi > int64(len(dp.Records)) {
		hi = int64(len(dp.Records))
	}
	if lo >= hi {
		return nil
	}
	return dp.Records[lo:hi]
}

// KeyframeBefore returns the newest keyframe at or before the given
// completed cycle, or nil (replay then starts from a cycle-0 rebuild).
func (dp *Dump) KeyframeBefore(cycle int64) *Keyframe {
	i := sort.Search(len(dp.Keyframes), func(i int) bool {
		return dp.Keyframes[i].Cycle > cycle
	})
	if i == 0 {
		return nil
	}
	return &dp.Keyframes[i-1]
}

// writeDump writes a dump image crash-safely (temp file + fsync + rename,
// like the checkpoint store) under dir as
// flightrec-<cycle>-<seq>-<reason>.frec.
func writeDump(dir string, cycle int64, seq int, reason string, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("flightrec-%012d-%03d-%s.frec", cycle, seq, sanitizeReason(reason))
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}

// sanitizeReason maps a free-form trigger reason onto a filename-safe
// slug.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason) && len(out) < 40; i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}
