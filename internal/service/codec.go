package service

// The line codec. Every hop of the protocol — Client → coordinator,
// coordinator → shard, shard → coordinator, coordinator → Client — moves
// through these functions. The hot lines (requests of every op, and the
// success envelopes of cloak and upload_batch) are encoded and decoded
// by hand, without reflection; everything else goes through
// encoding/json. Two rules make the split invisible on the wire:
//
//   - every line an encoder writes is byte-identical to json.Marshal(v)
//     followed by '\n';
//   - a hand-written decoder either yields exactly what encoding/json
//     would, or gives up and hands the whole line to encoding/json. It
//     never reports an error of its own.
//
// The hand-written decoders accept the canonical grammar only: no
// whitespace between tokens, exact lowercase field names each at most
// once, strings of printable ASCII without escapes, integers without
// fraction or exponent inside the field's range, and JSON numbers for
// max_area. Escapes, non-ASCII, case-folded or repeated keys, null,
// unknown fields and out-of-range numbers all take the encoding/json
// path, which is the reference the differential tests hold them to.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"time"

	"nonexposure/internal/metrics"
)

// ServeLines runs the server side of the line protocol on conn: one
// request per line in, one reply per line out, until ctx is done, the
// idle deadline passes (idle <= 0 disables it), or the peer hangs up.
// Blank lines are skipped. A malformed line is answered in the v0 shape
// (its version is unknowable; v1 clients decode it too) and counted as
// "malformed" in rm, and the connection stays open, so one bad request
// does not kill a pipelined client. An over-long line ends the
// connection: its framing is lost. handle answers every parsed request
// with an Envelope or a Response. The caller owns conn and closes it.
func ServeLines(ctx context.Context, conn net.Conn, idle time.Duration, rm *metrics.RequestMetrics,
	handle func(context.Context, Request) any) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), MaxLineBytes)
	var out []byte
	for {
		if ctx.Err() != nil {
			return
		}
		if idle > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
				return
			}
		}
		if !sc.Scan() {
			return
		}
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var reply any
		req, err := ParseRequest(line)
		if err != nil {
			reply = Response{Error: err.Error()}
			rm.Observe("malformed", 0, false)
		} else {
			reply = handle(ctx, req)
		}
		if out, err = appendReply(out[:0], reply); err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// appendReply appends one reply line: an Envelope through
// appendEnvelope, anything else (the v0 Response) through encoding/json.
func appendReply(dst []byte, reply any) ([]byte, error) {
	if env, ok := reply.(Envelope); ok {
		return appendEnvelope(dst, &env)
	}
	return appendJSONLine(dst, reply)
}

// appendJSONLine appends json.Marshal(v) and a newline; on error dst
// comes back unchanged.
func appendJSONLine(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(append(dst, b...), '\n'), nil
}

// appendRequest appends req's line, byte-identical to json.Marshal(req)
// followed by '\n'. An op that needs escaping, or a profile whose
// max_area is not finite, goes through encoding/json instead (and the
// latter fails there exactly as it always did).
func appendRequest(dst []byte, req *Request) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '{')
	if req.V != 0 {
		dst = append(dst, `"v":`...)
		dst = strconv.AppendInt(dst, int64(req.V), 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"op":`...)
	var ok bool
	if dst, ok = appendPlainString(dst, string(req.Op)); !ok {
		return appendJSONLine(dst[:start], *req)
	}
	if req.User != 0 {
		dst = append(dst, `,"user":`...)
		dst = strconv.AppendInt(dst, int64(req.User), 10)
	}
	dst = appendPeers(dst, req.Peers)
	if dst, ok = appendProfile(dst, req.Profile); !ok {
		return appendJSONLine(dst[:start], *req)
	}
	if len(req.Uploads) > 0 {
		dst = append(dst, `,"uploads":[`...)
		for i := range req.Uploads {
			e := &req.Uploads[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"user":`...)
			dst = strconv.AppendInt(dst, int64(e.User), 10)
			dst = appendPeers(dst, e.Peers)
			if dst, ok = appendProfile(dst, e.Profile); !ok {
				return appendJSONLine(dst[:start], *req)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n'), nil
}

// appendPeers appends `,"peers":[...]`, or nothing for an empty list
// (omitempty).
func appendPeers(dst []byte, peers []PeerRank) []byte {
	if len(peers) == 0 {
		return dst
	}
	dst = append(dst, `,"peers":[`...)
	for i, p := range peers {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"peer":`...)
		dst = strconv.AppendInt(dst, int64(p.Peer), 10)
		dst = append(dst, `,"rank":`...)
		dst = strconv.AppendInt(dst, int64(p.Rank), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendProfile appends `,"profile":{...}`, or nothing for a nil
// profile. It reports false for a max_area encoding/json cannot encode.
func appendProfile(dst []byte, p *ProfileSpec) ([]byte, bool) {
	if p == nil {
		return dst, true
	}
	dst = append(dst, `,"profile":{`...)
	sep := false
	if p.K != 0 {
		dst = append(dst, `"k":`...)
		dst = strconv.AppendInt(dst, int64(p.K), 10)
		sep = true
	}
	if p.MaxArea != 0 {
		if sep {
			dst = append(dst, ',')
		}
		dst = append(dst, `"max_area":`...)
		var ok bool
		if dst, ok = appendFloat(dst, p.MaxArea); !ok {
			return dst, false
		}
		sep = true
	}
	if p.MaxStalenessMs != 0 {
		if sep {
			dst = append(dst, ',')
		}
		dst = append(dst, `"max_staleness_ms":`...)
		dst = strconv.AppendInt(dst, p.MaxStalenessMs, 10)
	}
	return append(dst, '}'), true
}

// appendPlainString appends s quoted when every byte is printable ASCII
// that encoding/json writes unescaped (it escapes <, > and & too), and
// reports false otherwise.
func appendPlainString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// appendFloat formats f as encoding/json does (ES6 number-to-string:
// exponent form below 1e-6 and from 1e21, exponent without padding),
// and reports false for NaN and infinities, which it cannot encode.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n-start >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// appendEnvelope appends env's line, byte-identical to json.Marshal(env)
// followed by '\n'. Success envelopes carrying at most a cloak and a
// batch payload are written by hand; error envelopes and the stats and
// epoch payloads go through encoding/json.
func appendEnvelope(dst []byte, env *Envelope) ([]byte, error) {
	if env.Error != "" || env.Stats != nil || env.Epoch != nil {
		return appendJSONLine(dst, *env)
	}
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(env.V), 10)
	dst = append(dst, `,"ok":`...)
	dst = strconv.AppendBool(dst, env.OK)
	if p := env.Cloak; p != nil {
		dst = append(dst, `,"cloak":{"cluster":`...)
		if p.Cluster == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for i, m := range p.Cluster {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(m), 10)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, `,"cost":`...)
		dst = strconv.AppendInt(dst, int64(p.Cost), 10)
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, p.Epoch, 10)
		dst = append(dst, `,"effective_k":`...)
		dst = strconv.AppendInt(dst, int64(p.EffectiveK), 10)
		if p.Degraded {
			dst = append(dst, `,"degraded":true`...)
		}
		dst = append(dst, '}')
	}
	if p := env.Batch; p != nil {
		dst = append(dst, `,"batch":{"accepted":`...)
		dst = strconv.AppendInt(dst, int64(p.Accepted), 10)
		dst = append(dst, '}')
	}
	return append(dst, '}', '\n'), nil
}

// ParseRequest decodes one protocol line into a Request. The line must
// hold exactly one JSON object — trailing non-whitespace data is
// rejected, as is an empty line — so a malformed client cannot smuggle a
// second request into the same line. Canonical lines are scanned by
// hand; every other line is decoded by encoding/json, with the same
// result either way.
func ParseRequest(line []byte) (Request, error) {
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 {
		return Request{}, fmt.Errorf("service: empty request line")
	}
	if req, ok := scanRequest(trimmed); ok {
		return req, nil
	}
	var req Request
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("service: malformed request: %w", err)
	}
	// Decode stops at the end of the first JSON value; with the
	// whitespace already trimmed, any unconsumed byte is trailing data.
	if dec.InputOffset() != int64(len(trimmed)) {
		return Request{}, fmt.Errorf("service: trailing data after request")
	}
	return req, nil
}

// decodeEnvelope decodes one reply line into env: by hand for the
// success envelopes appendEnvelope writes by hand, through encoding/json
// for everything else.
func decodeEnvelope(line []byte, env *Envelope) error {
	if scanEnvelope(line, env) {
		return nil
	}
	*env = Envelope{}
	return json.Unmarshal(line, env)
}

// minPeerLen is the length of the shortest peer object the scanner
// accepts, {"peer":0,"rank":0}; a line of n bytes holds at most
// n/minPeerLen of them.
const minPeerLen = len(`{"peer":0,"rank":0}`)

// lineScanner walks one line of the canonical grammar. Every method
// reports false at the first byte outside it; the caller then hands the
// whole line to encoding/json.
type lineScanner struct {
	b []byte
	i int
	// peers backs every peer list of the line. It is sized for the most
	// peer objects the rest of the line can hold when the first list
	// starts, so it never reallocates and the lists can slice it.
	peers []PeerRank
}

// next consumes c if it is the next byte.
func (s *lineScanner) next(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit consumes lit if the input continues with it.
func (s *lineScanner) lit(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// object reads an object, handing each key to member, which reads the
// value and returns the key's bit (0 for an unknown key) and whether the
// value was canonical. Each key may appear at most once.
func (s *lineScanner) object(member func(key []byte) (bit int, ok bool)) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for seen := 0; ; {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		bit, ok := member(key)
		if bit == 0 || !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// array reads an array, calling elem to read each element.
func (s *lineScanner) array(elem func() bool) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.next(']') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// str reads a string of printable ASCII without escapes and returns its
// contents.
func (s *lineScanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// digits reads the digits of a JSON integer (no leading zeros) whose
// value fits a uint64. A fraction or exponent is left unread, and the
// caller's next separator check rejects it.
func (s *lineScanner) digits() (uint64, bool) {
	start := s.i
	var n uint64
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if d := s.i - start; d == 0 || (d > 1 && s.b[start] == '0') {
		return 0, false
	}
	return n, true
}

// integer reads a JSON integer in [lo, hi] (lo < 0 < hi).
func (s *lineScanner) integer(lo, hi int64) (int64, bool) {
	neg := s.next('-')
	n, ok := s.digits()
	switch {
	case !ok:
		return 0, false
	case neg:
		if n > uint64(-(lo+1))+1 {
			return 0, false
		}
		return -int64(n), true
	case n > uint64(hi):
		return 0, false
	}
	return int64(n), true
}

// uint64 reads a non-negative JSON integer; encoding/json rejects even
// "-0" for unsigned fields, so any sign takes the fallback.
func (s *lineScanner) uint64() (uint64, bool) {
	if s.i < len(s.b) && s.b[s.i] == '-' {
		return 0, false
	}
	return s.digits()
}

func (s *lineScanner) int32() (int32, bool) {
	n, ok := s.integer(math.MinInt32, math.MaxInt32)
	return int32(n), ok
}

func (s *lineScanner) int() (int, bool) {
	n, ok := s.integer(math.MinInt, math.MaxInt)
	return int(n), ok
}

// float reads a JSON number and converts it as encoding/json does.
func (s *lineScanner) float() (float64, bool) {
	start := s.i
	s.next('-')
	if !s.next('0') {
		if s.i >= len(s.b) || s.b[s.i] < '1' || s.b[s.i] > '9' {
			return 0, false
		}
		s.skipDigits()
	}
	if s.next('.') && !s.skipDigits() {
		return 0, false
	}
	if s.next('e') || s.next('E') {
		if !s.next('+') {
			s.next('-')
		}
		if !s.skipDigits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// skipDigits consumes a run of digits and reports whether it was
// non-empty.
func (s *lineScanner) skipDigits() bool {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

func (s *lineScanner) boolean() (bool, bool) {
	if s.lit("true") {
		return true, true
	}
	return false, s.lit("false")
}

// scanRequest decodes a canonical request line.
func scanRequest(b []byte) (Request, bool) {
	s := lineScanner{b: b}
	var req Request
	ok := s.object(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "v":
			req.V, ok = s.int()
			return 1, ok
		case "op":
			var op []byte
			op, ok = s.str()
			req.Op = internOp(op)
			return 2, ok
		case "user":
			req.User, ok = s.int32()
			return 4, ok
		case "peers":
			req.Peers, ok = s.peerList()
			return 8, ok
		case "profile":
			req.Profile, ok = s.profile()
			return 16, ok
		case "uploads":
			req.Uploads, ok = s.uploads()
			return 32, ok
		}
		return 0, false
	})
	return req, ok && s.i == len(b)
}

// internOp returns the Op for name, without allocating for the known
// ops.
func internOp(name []byte) Op {
	switch string(name) {
	case "ping":
		return OpPing
	case "upload":
		return OpUpload
	case "upload_batch":
		return OpUploadBatch
	case "cloak":
		return OpCloak
	case "freeze":
		return OpFreeze
	case "rotate":
		return OpRotate
	case "epoch":
		return OpEpoch
	case "stats":
		return OpStats
	}
	return Op(name)
}

// peerList reads an array of peer objects in canonical form,
// {"peer":N,"rank":M}. An empty array decodes to an empty, non-nil
// slice, as encoding/json leaves it.
func (s *lineScanner) peerList() ([]PeerRank, bool) {
	if s.peers == nil {
		s.peers = make([]PeerRank, 0, (len(s.b)-s.i)/minPeerLen+1)
	}
	start := len(s.peers)
	ok := s.array(func() bool {
		var p PeerRank
		var ok bool
		if !s.lit(`{"peer":`) {
			return false
		}
		if p.Peer, ok = s.int32(); !ok || !s.lit(`,"rank":`) {
			return false
		}
		if p.Rank, ok = s.int32(); !ok || !s.next('}') {
			return false
		}
		s.peers = append(s.peers, p)
		return true
	})
	return s.peers[start:len(s.peers):len(s.peers)], ok
}

// profile reads a profile object; {} is the explicit zero profile.
func (s *lineScanner) profile() (*ProfileSpec, bool) {
	p := new(ProfileSpec)
	ok := s.object(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "k":
			p.K, ok = s.int32()
			return 1, ok
		case "max_area":
			p.MaxArea, ok = s.float()
			return 2, ok
		case "max_staleness_ms":
			p.MaxStalenessMs, ok = s.integer(math.MinInt64, math.MaxInt64)
			return 4, ok
		}
		return 0, false
	})
	return p, ok
}

// uploads reads an upload_batch's entry array.
func (s *lineScanner) uploads() ([]UploadEntry, bool) {
	entries := make([]UploadEntry, 0, 16)
	ok := s.array(func() bool {
		var e UploadEntry
		ok := s.object(func(key []byte) (bit int, ok bool) {
			switch string(key) {
			case "user":
				e.User, ok = s.int32()
				return 1, ok
			case "peers":
				e.Peers, ok = s.peerList()
				return 2, ok
			case "profile":
				e.Profile, ok = s.profile()
				return 4, ok
			}
			return 0, false
		})
		entries = append(entries, e)
		return ok
	})
	return entries, ok
}

// scanEnvelope decodes a canonical success envelope carrying at most a
// cloak and a batch payload. On false env may hold partial state.
func scanEnvelope(b []byte, env *Envelope) bool {
	s := lineScanner{b: b}
	ok := s.object(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "v":
			env.V, ok = s.int()
			return 1, ok
		case "ok":
			env.OK, ok = s.boolean()
			return 2, ok
		case "cloak":
			env.Cloak, ok = s.cloakPayload()
			return 4, ok
		case "batch":
			env.Batch, ok = s.batchPayload()
			return 8, ok
		}
		return 0, false
	})
	return ok && s.i == len(b)
}

func (s *lineScanner) cloakPayload() (*CloakPayload, bool) {
	p := new(CloakPayload)
	ok := s.object(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "cluster":
			p.Cluster, ok = s.int32List()
			return 1, ok
		case "cost":
			p.Cost, ok = s.int()
			return 2, ok
		case "epoch":
			p.Epoch, ok = s.uint64()
			return 4, ok
		case "effective_k":
			p.EffectiveK, ok = s.int()
			return 8, ok
		case "degraded":
			p.Degraded, ok = s.boolean()
			return 16, ok
		}
		return 0, false
	})
	return p, ok
}

// int32List reads an array of int32s; [] decodes to an empty, non-nil
// slice.
func (s *lineScanner) int32List() ([]int32, bool) {
	list := make([]int32, 0, 16)
	ok := s.array(func() bool {
		n, ok := s.int32()
		list = append(list, n)
		return ok
	})
	return list, ok
}

func (s *lineScanner) batchPayload() (*BatchPayload, bool) {
	p := new(BatchPayload)
	ok := s.object(func(key []byte) (bit int, ok bool) {
		if string(key) != "accepted" {
			return 0, false
		}
		p.Accepted, ok = s.int()
		return 1, ok
	})
	return p, ok
}

// readLine returns the next line from br that is not blank, without
// its newline, buffering lines longer than br in *long. The slice is
// valid until the next call. End of input inside a line is
// io.ErrUnexpectedEOF, as encoding/json's Decoder reports it.
func readLine(br *bufio.Reader, long *[]byte) ([]byte, error) {
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			buf := append((*long)[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				buf = append(buf, line...)
			}
			*long = buf
			line = buf
		}
		blank := len(bytes.TrimLeft(line, " \t\r\n")) == 0
		if err != nil {
			if err == io.EOF && !blank {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if !blank {
			return line[:len(line)-1], nil
		}
	}
}
