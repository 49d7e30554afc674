package flight

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// decoder walks a byte slice with strict bounds checks; every malformed
// input yields an error, never a panic (FuzzRecordingDecode enforces it).
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("flight: bad uvarint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("flight: bad varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) intField() (int, error) {
	v, err := d.uvarint()
	return int(v), err
}

func (d *decoder) id() (graph.NodeID, error) {
	v, err := d.varint()
	return graph.NodeID(v), err
}

func (d *decoder) byteField() (byte, error) {
	if d.remaining() < 1 {
		return 0, fmt.Errorf("flight: unexpected end at offset %d", d.off)
	}
	b := d.b[d.off]
	d.off++
	return b, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", fmt.Errorf("flight: string length %d exceeds remaining %d", n, d.remaining())
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) ids() ([]graph.NodeID, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.remaining()) {
		return nil, fmt.Errorf("flight: id list length %d exceeds remaining %d", n, d.remaining())
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]graph.NodeID, 0, n)
	for i := uint64(0); i < n; i++ {
		id, err := d.id()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
	return out, nil
}

// --- per-record decoders ----------------------------------------------------

func decodeHeader(d *decoder) (Header, error) {
	var h Header
	var err error
	if h.Version, err = d.intField(); err != nil {
		return h, err
	}
	if h.Seed, err = d.varint(); err != nil {
		return h, err
	}
	if h.N, err = d.intField(); err != nil {
		return h, err
	}
	if h.Side, err = d.intField(); err != nil {
		return h, err
	}
	if h.Channels, err = d.intField(); err != nil {
		return h, err
	}
	if h.Source, err = d.id(); err != nil {
		return h, err
	}
	if h.Protocol, err = d.str(); err != nil {
		return h, err
	}
	bits, err := d.uvarint()
	if err != nil {
		return h, err
	}
	h.LossRate = math.Float64frombits(bits)
	if h.LossSeed, err = d.varint(); err != nil {
		return h, err
	}
	if h.RingLimit, err = d.intField(); err != nil {
		return h, err
	}
	if h.Version >= 2 {
		if h.RNGScheme, err = d.str(); err != nil {
			return h, err
		}
	} else {
		// Version 1 predates counter streams: every v1 recording was made
		// under the serial engine-RNG coin order.
		h.RNGScheme = RNGSchemeEngineRand
	}
	return h, nil
}

func decodeNode(d *decoder) (NodeInfo, error) {
	var n NodeInfo
	var err error
	if n.ID, err = d.id(); err != nil {
		return n, err
	}
	if n.Role, err = d.byteField(); err != nil {
		return n, err
	}
	if n.Parent, err = d.id(); err != nil {
		return n, err
	}
	if n.Depth, err = d.intField(); err != nil {
		return n, err
	}
	if n.BSlot, err = d.intField(); err != nil {
		return n, err
	}
	if n.LSlot, err = d.intField(); err != nil {
		return n, err
	}
	if n.USlot, err = d.intField(); err != nil {
		return n, err
	}
	return n, nil
}

func decodeEdge(d *decoder) (Edge, error) {
	var e Edge
	var err error
	if e.U, err = d.id(); err != nil {
		return e, err
	}
	if e.V, err = d.id(); err != nil {
		return e, err
	}
	return e, nil
}

func decodeDelta(d *decoder) (Delta, error) {
	var dl Delta
	kind, err := d.byteField()
	if err != nil {
		return dl, err
	}
	dl.Kind = DeltaKind(kind)
	if dl.Node, err = d.id(); err != nil {
		return dl, err
	}
	if dl.Peer, err = d.id(); err != nil {
		return dl, err
	}
	if dl.Round, err = d.intField(); err != nil {
		return dl, err
	}
	flags, err := d.byteField()
	if err != nil {
		return dl, err
	}
	dl.RootChanged = flags&1 != 0
	if dl.Reinserted, err = d.ids(); err != nil {
		return dl, err
	}
	if dl.Dropped, err = d.ids(); err != nil {
		return dl, err
	}
	return dl, nil
}

func decodePhase(d *decoder) (Phase, error) {
	var p Phase
	var err error
	if p.Name, err = d.str(); err != nil {
		return p, err
	}
	if p.Lo, err = d.intField(); err != nil {
		return p, err
	}
	if p.Hi, err = d.intField(); err != nil {
		return p, err
	}
	return p, nil
}

func decodeEvent(d *decoder) (radio.Event, error) {
	var ev radio.Event
	var err error
	if ev.Seq, err = d.uvarint(); err != nil {
		return ev, err
	}
	if ev.Round, err = d.intField(); err != nil {
		return ev, err
	}
	kind, err := d.byteField()
	if err != nil {
		return ev, err
	}
	ev.Kind = radio.EventKind(kind)
	if ev.Node, err = d.id(); err != nil {
		return ev, err
	}
	if ev.Peer, err = d.id(); err != nil {
		return ev, err
	}
	ch, err := d.uvarint()
	if err != nil {
		return ev, err
	}
	ev.Channel = radio.Channel(ch)
	m := &ev.Msg
	seq, err := d.varint()
	if err != nil {
		return ev, err
	}
	m.Seq = int(seq)
	for _, p := range [...]*graph.NodeID{&m.Src, &m.From, &m.Dst} {
		if *p, err = d.id(); err != nil {
			return ev, err
		}
	}
	for _, p := range [...]*int{&m.Slot, &m.Depth, &m.MaxSlot, &m.Height, &m.Group} {
		v, err := d.varint()
		if err != nil {
			return ev, err
		}
		*p = int(v)
	}
	if ev.Msg.Value, err = d.varint(); err != nil {
		return ev, err
	}
	return ev, nil
}

func decodeFooter(d *decoder) (Footer, error) {
	var f Footer
	fields := []*int{
		&f.ScheduleLen, &f.Rounds, &f.Deliveries, &f.Collisions,
		&f.Transmissions, &f.Losses, &f.Received, &f.Audience,
		&f.CompletionRound, &f.DroppedEvents,
	}
	for _, p := range fields {
		v, err := d.intField()
		if err != nil {
			return f, err
		}
		*p = v
	}
	return f, nil
}

// countRecords counts the records of each type by walking only the
// framing (type byte, payload length), so DecodeBytes can size its slices
// once. It stops at the first malformed frame; the decoding pass that
// follows reports the error.
func countRecords(b []byte) (n [recFooter + 1]int) {
	d := &decoder{b: b}
	for d.remaining() > 0 {
		typ, err := d.byteField()
		if err != nil {
			return n
		}
		plen, err := d.uvarint()
		if err != nil || plen > uint64(d.remaining()) {
			return n
		}
		d.off += int(plen)
		if int(typ) < len(n) {
			n[typ]++
		}
	}
	return n
}

// presize returns an empty slice with room for n elements, or nil when n
// is 0 so that absent record types decode as before.
func presize[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// Decode reads a full recording from r. It is strict about framing — the
// magic must match, the header must be the first record, the footer (when
// present) must be the last — but semantic validation is the verifier's
// job, so syntactically well-formed nonsense decodes fine.
func Decode(r io.Reader) (*Recording, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("flight: read recording: %w", err)
	}
	return DecodeBytes(raw)
}

// DecodeBytes is Decode over an in-memory recording.
func DecodeBytes(raw []byte) (*Recording, error) {
	if len(raw) < len(magic) || !bytes.Equal(raw[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("flight: bad magic (want %q)", magic[:])
	}
	d := &decoder{b: raw, off: len(magic)}
	n := countRecords(raw[len(magic):])
	rec := &Recording{
		Nodes:  presize[NodeInfo](n[recNode]),
		Edges:  presize[Edge](n[recEdge]),
		Deltas: presize[Delta](n[recDelta]),
		Phases: presize[Phase](n[recPhase]),
		Events: presize[radio.Event](n[recEvent]),
	}
	sawHeader := false
	for d.remaining() > 0 {
		if rec.Footer != nil {
			return nil, fmt.Errorf("flight: record after footer at offset %d", d.off)
		}
		typ, err := d.byteField()
		if err != nil {
			return nil, err
		}
		plen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if plen > uint64(d.remaining()) {
			return nil, fmt.Errorf("flight: record length %d exceeds remaining %d", plen, d.remaining())
		}
		payload := &decoder{b: d.b[d.off : d.off+int(plen)]}
		d.off += int(plen)
		if !sawHeader && typ != recHeader {
			return nil, fmt.Errorf("flight: first record is type %d, not a header", typ)
		}
		switch typ {
		case recHeader:
			if sawHeader {
				return nil, fmt.Errorf("flight: duplicate header at offset %d", d.off)
			}
			if rec.Header, err = decodeHeader(payload); err != nil {
				return nil, err
			}
			sawHeader = true
		case recNode:
			n, err := decodeNode(payload)
			if err != nil {
				return nil, err
			}
			rec.Nodes = append(rec.Nodes, n)
		case recEdge:
			e, err := decodeEdge(payload)
			if err != nil {
				return nil, err
			}
			rec.Edges = append(rec.Edges, e)
		case recDelta:
			dl, err := decodeDelta(payload)
			if err != nil {
				return nil, err
			}
			rec.Deltas = append(rec.Deltas, dl)
		case recPhase:
			p, err := decodePhase(payload)
			if err != nil {
				return nil, err
			}
			rec.Phases = append(rec.Phases, p)
		case recEvent:
			ev, err := decodeEvent(payload)
			if err != nil {
				return nil, err
			}
			rec.Events = append(rec.Events, ev)
		case recFooter:
			f, err := decodeFooter(payload)
			if err != nil {
				return nil, err
			}
			rec.Footer = &f
		default:
			return nil, fmt.Errorf("flight: unknown record type %d", typ)
		}
		if payload.remaining() > 0 {
			return nil, fmt.Errorf("flight: %d trailing bytes in record type %d", payload.remaining(), typ)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("flight: empty recording (no header)")
	}
	return rec, nil
}
