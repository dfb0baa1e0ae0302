package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// jsonParseRequest is the encoding/json reference ParseRequest is held
// to: the decoder it used before the hand-written scanner existed.
func jsonParseRequest(line []byte) (Request, error) {
	var req Request
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 {
		return req, errors.New("empty request line")
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	if err := dec.Decode(&req); err != nil {
		return Request{}, err
	}
	if dec.InputOffset() != int64(len(trimmed)) {
		return Request{}, errors.New("trailing data after request")
	}
	return req, nil
}

// checkRequestLine asserts ParseRequest agrees with encoding/json on
// line — both reject, or both accept the same request — that a line the
// scanner takes agrees too, and that an accepted request re-encodes
// byte-identically to json.Marshal plus a newline.
func checkRequestLine(t *testing.T, line []byte) {
	t.Helper()
	got, err := ParseRequest(line)
	want, werr := jsonParseRequest(line)
	if (err == nil) != (werr == nil) {
		t.Fatalf("ParseRequest(%q): err %v, encoding/json err %v", line, err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseRequest(%q):\n  got  %#v\n  want %#v", line, got, want)
	}
	if fast, ok := scanRequest(bytes.TrimSpace(line)); ok && !reflect.DeepEqual(fast, want) {
		t.Fatalf("scanRequest(%q):\n  got  %#v\n  want %#v", line, fast, want)
	}
	checkRequestEncoding(t, &got)
}

// checkRequestEncoding asserts appendRequest writes json.Marshal(req)
// plus a newline, after any existing bytes, or fails as json.Marshal
// does.
func checkRequestEncoding(t *testing.T, req *Request) {
	t.Helper()
	want, werr := json.Marshal(req)
	got, err := appendRequest([]byte("prefix"), req)
	if (err == nil) != (werr == nil) {
		t.Fatalf("appendRequest(%#v): err %v, json.Marshal err %v", req, err, werr)
	}
	if err != nil {
		if string(got) != "prefix" {
			t.Fatalf("failed appendRequest left %q", got)
		}
		return
	}
	if string(got) != "prefix"+string(want)+"\n" {
		t.Fatalf("appendRequest(%#v):\n  got  %s\n  want %s", req, got[len("prefix"):], want)
	}
}

// checkEnvelopeLine asserts decodeEnvelope agrees with json.Unmarshal on
// line, and that a line the scanner takes agrees too.
func checkEnvelopeLine(t *testing.T, line []byte) {
	t.Helper()
	var got, want Envelope
	err := decodeEnvelope(line, &got)
	werr := json.Unmarshal(line, &want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("decodeEnvelope(%q): err %v, json.Unmarshal err %v", line, err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeEnvelope(%q):\n  got  %#v\n  want %#v", line, got, want)
	}
	var fast Envelope
	if scanEnvelope(line, &fast) && !reflect.DeepEqual(fast, want) {
		t.Fatalf("scanEnvelope(%q):\n  got  %#v\n  want %#v", line, fast, want)
	}
	checkEnvelopeEncoding(t, &got)
}

// checkEnvelopeEncoding asserts appendEnvelope writes json.Marshal(env)
// plus a newline.
func checkEnvelopeEncoding(t *testing.T, env *Envelope) {
	t.Helper()
	want, werr := json.Marshal(env)
	got, err := appendEnvelope(nil, env)
	if (err == nil) != (werr == nil) {
		t.Fatalf("appendEnvelope(%#v): err %v, json.Marshal err %v", env, err, werr)
	}
	if err == nil && string(got) != string(want)+"\n" {
		t.Fatalf("appendEnvelope(%#v):\n  got  %s\n  want %s", env, got, want)
	}
}

// requestLines are hand-picked lines on both sides of the scanner's
// grammar; FuzzProtocolDecode starts from them too.
var requestLines = []string{
	`{"op":"ping"}`,
	`{"v":1,"op":"cloak","user":7}`,
	`{"op":"upload","user":3,"peers":[{"peer":1,"rank":1},{"peer":2,"rank":2}]}`,
	`{"v":1,"op":"upload_batch","uploads":[{"user":1,"peers":[{"peer":2,"rank":1}],"profile":{"k":5,"max_area":1e-7}},{"user":2,"profile":{"max_area":0.5,"max_staleness_ms":250}},{"user":3,"peers":[],"profile":{"max_area":1e21}}]}`,
	`{"v":1,"op":"upload","user":4,"peers":[{"peer":5,"rank":1}],"profile":{}}`,
	`{"v":1,"op":"upload_batch","uploads":[]}`,
	`{"v":1,"op":"upload_batch","uploads":[{}]}`,
	`{"op":"upload","peers":[]}`,
	`{}`,
	`{"user":2,"op":"cloak","v":1}`,
	`{"op":""}`,
	`{"op":"no such op"}`,
	`{"op":"a<b>&c"}`,
	`{"op":"pi\u006eg"}`,
	`{"op":"del\u007f"}`,
	"{\"op\":\"del\x7f\"}",
	`{"OP":"ping"}`,
	`{"Op":"ping","op":"stats"}`,
	`{"op":"ping"}`,
	`{"op":"café"}`,
	`{"op":"café"}`,
	"{\"op\":\"bad\xffutf8\"}",
	`{"op":"upload","peers":null}`,
	`{"op":null}`,
	`{"v":null,"op":"ping"}`,
	`{"op":"upload","profile":null}`,
	`{"op":"upload","profile":{"k":1},"profile":{"max_area":2}}`,
	`{"op":"upload_batch","uploads":[{"user":1}],"uploads":[{"user":2}]}`,
	`{"op":"ping","op":"stats"}`,
	`{"op":"ping","extra":{"nested":[1,{"deep":null}],"s":"x"}}`,
	`{"op":"upload","peers":[{"peer":1,"rank":1,"note":{}}]}`,
	`{"op":"upload_batch","uploads":[{"user":1,"trace":{"id":"x"}}]}`,
	`{"op":"cloak","user":-0}`,
	`{"op":"cloak","user":2147483647}`,
	`{"op":"cloak","user":2147483648}`,
	`{"op":"cloak","user":-2147483648}`,
	`{"op":"cloak","user":-2147483649}`,
	`{"v":9223372036854775807,"op":"ping"}`,
	`{"v":9223372036854775808,"op":"ping"}`,
	`{"v":-9223372036854775808,"op":"ping"}`,
	`{"v":12345678901234567890123,"op":"ping"}`,
	`{"op":"cloak","user":007}`,
	`{"op":"cloak","user":0}`,
	`{"op":"cloak","user":1.0}`,
	`{"op":"cloak","user":1e2}`,
	`{"op":"cloak","user":-}`,
	`{"op":"cloak","user":"3"}`,
	`{"op":"upload","profile":{"max_area":-0}}`,
	`{"op":"upload","profile":{"max_area":1e400}}`,
	`{"op":"upload","profile":{"max_area":1e-400}}`,
	`{"op":"upload","profile":{"max_area":4.9e-324}}`,
	`{"op":"upload","profile":{"max_area":1.}}`,
	`{"op":"upload","profile":{"max_area":.5}}`,
	`{"op":"upload","profile":{"max_area":01}}`,
	`{"op":"upload","profile":{"max_area":1E+2}}`,
	`{"op":"upload","profile":{"k":1.5}}`,
	`{"op":"upload","profile":{"max_staleness_ms":9223372036854775807}}`,
	`{"op":"upload","profile":{"max_staleness_ms":9223372036854775808}}`,
	`{"op": "ping"}`,
	` {"op":"ping"} `,
	"{\"op\":\"ping\"}\r\n",
	`{"op":"ping"}{"op":"stats"}`,
	`{"op":"ping"} trailing`,
	`{"op":"ping",}`,
	`{"op":"ping"`,
	`{"op":"pi`,
	`{"op":"upload","peers":[{"peer":1,"rank":1},]}`,
	`{"op":"upload","peers":[{"rank":1,"peer":2}]}`,
	`{"op":"upload","peers":[{"peer":1}]}`,
	`[]`,
	`null`,
	`"ping"`,
	``,
	`not json at all`,
}

func TestParseRequestMatchesEncodingJSON(t *testing.T) {
	for _, line := range requestLines {
		checkRequestLine(t, []byte(line))
	}
}

// TestCanonicalLinesTakeTheScanner pins that the lines the codec itself
// writes never fall back to encoding/json: without this, a scanner gap
// would only show up as lost speed.
func TestCanonicalLinesTakeTheScanner(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		req := randomRequest(rng)
		line, err := appendRequest(nil, &req)
		if err != nil {
			t.Fatalf("appendRequest(%#v): %v", req, err)
		}
		if _, ok := scanRequest(bytes.TrimSpace(line)); !ok {
			t.Fatalf("scanner refused a canonical request line: %s", line)
		}
		env := randomEnvelope(rng)
		if env.Error != "" || env.Stats != nil || env.Epoch != nil {
			continue
		}
		eline, err := appendEnvelope(nil, &env)
		if err != nil {
			t.Fatalf("appendEnvelope(%#v): %v", env, err)
		}
		if env.Cloak != nil && env.Cloak.Cluster == nil {
			continue // "cluster":null is left to encoding/json
		}
		var got Envelope
		if !scanEnvelope(eline[:len(eline)-1], &got) {
			t.Fatalf("scanner refused a canonical envelope line: %s", eline)
		}
	}
}

// TestRandomRequestsRoundTrip holds the encoder to json.Marshal and the
// decoder to encoding/json on seeded random requests, including the
// float edge cases of max_area.
func TestRandomRequestsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		req := randomRequest(rng)
		checkRequestEncoding(t, &req)
		line, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		checkRequestLine(t, line)
	}
}

func TestRandomEnvelopesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		env := randomEnvelope(rng)
		checkEnvelopeEncoding(t, &env)
		line, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelopeLine(t, line)
	}
}

// TestEncodersFailLikeEncodingJSON: values encoding/json cannot encode
// fail the same way, and ops that need escaping come out escaped.
func TestEncodersFailLikeEncodingJSON(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkRequestEncoding(t, &Request{Op: OpUpload, Profile: &ProfileSpec{MaxArea: f}})
		checkRequestEncoding(t, &Request{Op: OpUploadBatch, Uploads: []UploadEntry{{User: 1, Profile: &ProfileSpec{MaxArea: f}}}})
	}
	for _, op := range []Op{"<script>", "a&b", "quote\"d", "back\\slash", "tab\t", "é", " ", "bad\xff", "del\x7f"} {
		checkRequestEncoding(t, &Request{V: 1, Op: op, User: 3})
	}
	checkEnvelopeEncoding(t, &Envelope{V: 1, Error: "bad <input> & \"quotes\""})
	checkEnvelopeEncoding(t, &Envelope{V: 1, OK: true, Cloak: &CloakPayload{Cluster: nil}})
	checkEnvelopeEncoding(t, &Envelope{V: 1, OK: true, Stats: &StatsPayload{LatP50us: math.NaN()}})
}

func TestEnvelopeLinesMatchEncodingJSON(t *testing.T) {
	for _, line := range envelopeLines {
		checkEnvelopeLine(t, []byte(line))
	}
}

// envelopeLines are hand-picked reply lines; FuzzEnvelopeDecode starts
// from them too.
var envelopeLines = []string{
	`{"v":1,"ok":true}`,
	`{"v":1,"ok":true,"cloak":{"cluster":[3,1,2],"cost":12,"epoch":4,"effective_k":3}}`,
	`{"v":1,"ok":true,"cloak":{"cluster":[3,1,2],"cost":0,"epoch":4,"effective_k":5,"degraded":true}}`,
	`{"v":1,"ok":true,"cloak":{"cluster":[],"cost":0,"epoch":0,"effective_k":0}}`,
	`{"v":1,"ok":true,"cloak":{"cluster":null,"cost":0,"epoch":0,"effective_k":0}}`,
	`{"v":1,"ok":true,"cloak":{}}`,
	`{"v":1,"ok":true,"batch":{"accepted":128}}`,
	`{"v":1,"ok":false,"error":"user 99 outside population","batch":{"accepted":3}}`,
	`{"v":1,"ok":false,"error":"café <"}`,
	`{"v":1,"ok":true,"epoch":{"epoch":2,"published":true}}`,
	`{"v":1,"ok":true,"stats":{"users":5,"frozen":false,"op_counts":{"ping":1}}}`,
	`{"ok":false,"error":"service: malformed request: x"}`,
	`{"ok":true,"cluster":[1,2],"cost":3,"epoch":1}`,
	`{"v":1,"ok":true,"cloak":{"cluster":[1],"cost":1,"epoch":18446744073709551615,"effective_k":1}}`,
	`{"v":1,"ok":true,"cloak":{"cluster":[1],"cost":1,"epoch":-0,"effective_k":1}}`,
	`{"v":1,"ok":true,"cloak":{"cluster":[1],"cost":1,"epoch":-1,"effective_k":1}}`,
	`{"v":1,"ok":true,"cloak":{"cluster":[2147483648],"cost":1,"epoch":1,"effective_k":1}}`,
	`{"v":1,"ok":true,"cloak":{"cluster":[1],"cost":1.5,"epoch":1,"effective_k":1}}`,
	`{"v":1,"ok":true,"cloak":{"cluster":[1],"cost":1,"epoch":1,"effective_k":1,"degraded":false}}`,
	`{"v":1,"ok":true,"cloak":{"cluster":[1],"cost":1,"epoch":1,"effective_k":1,"extra":0}}`,
	`{"v":1,"ok":true,"ok":false}`,
	`{"v":1,"OK":true}`,
	`{"v":1,"ok":tru}`,
	`{"v":1,"ok":null}`,
	`{"v":1,"ok":true,"batch":{"accepted":1,"accepted":2}}`,
	`{"v":1,"ok":true,"batch":null}`,
	`{"v":1,"ok":true} `,
	`{"v":1,"ok":true}x`,
	`{}`,
	``,
	`{"v":1,"ok":true,"epoch":{"epoch":3,"published":true,"unchanged":true,"pending":0,"builds":3}}`,
	`{"v":1,"ok":true,"epoch":{"epoch":4,"published":false,"unchanged":false,"pending":1,"builds":3}}`,
}

// randomRequest draws a request over every field and the edge values
// the codec has to get right.
func randomRequest(rng *rand.Rand) Request {
	ops := []Op{OpPing, OpUpload, OpUploadBatch, OpCloak, OpFreeze, OpRotate, OpEpoch, OpStats, "", "custom_op"}
	req := Request{V: rng.Intn(3) - 1, Op: ops[rng.Intn(len(ops))], User: randomInt32(rng)}
	req.Peers = randomPeers(rng)
	req.Profile = randomProfile(rng)
	if rng.Intn(3) == 0 {
		n := rng.Intn(6)
		req.Uploads = make([]UploadEntry, n)
		for i := range req.Uploads {
			req.Uploads[i] = UploadEntry{User: randomInt32(rng), Peers: randomPeers(rng), Profile: randomProfile(rng)}
		}
	}
	return req
}

func randomInt32(rng *rand.Rand) int32 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return []int32{math.MaxInt32, math.MinInt32, -1, 1}[rng.Intn(4)]
	case 2:
		return int32(rng.Uint32())
	}
	return int32(rng.Intn(20000))
}

func randomPeers(rng *rand.Rand) []PeerRank {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []PeerRank{}
	}
	peers := make([]PeerRank, 1+rng.Intn(12))
	for i := range peers {
		peers[i] = PeerRank{Peer: randomInt32(rng), Rank: randomInt32(rng)}
	}
	return peers
}

var edgeFloats = []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99999e-7, 0.5, 1, 1e20, 1e21, 9.99e20,
	-1e21, 123456.789, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3, 2.5e-10, 1e100}

func randomProfile(rng *rand.Rand) *ProfileSpec {
	if rng.Intn(3) == 0 {
		return nil
	}
	p := &ProfileSpec{}
	if rng.Intn(2) == 0 {
		p.K = randomInt32(rng)
	}
	switch rng.Intn(3) {
	case 0:
		p.MaxArea = edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		for {
			f := math.Float64frombits(rng.Uint64())
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				p.MaxArea = f
				break
			}
		}
	}
	if rng.Intn(2) == 0 {
		p.MaxStalenessMs = rng.Int63() - rng.Int63()
	}
	return p
}

// randomEnvelope draws envelopes of every shape, most of them the
// success shapes the codec writes by hand.
func randomEnvelope(rng *rand.Rand) Envelope {
	env := Envelope{V: rng.Intn(3), OK: rng.Intn(4) != 0}
	switch rng.Intn(6) {
	case 0, 1, 2:
		p := &CloakPayload{Cost: rng.Intn(3) * rng.Int(), EffectiveK: rng.Intn(30), Degraded: rng.Intn(2) == 0}
		p.Epoch = []uint64{0, 1, rng.Uint64(), math.MaxUint64}[rng.Intn(4)]
		switch rng.Intn(5) {
		case 0:
		case 1:
			p.Cluster = []int32{}
		default:
			p.Cluster = make([]int32, 1+rng.Intn(40))
			for i := range p.Cluster {
				p.Cluster[i] = randomInt32(rng)
			}
		}
		env.Cloak = p
	case 3:
		env.Batch = &BatchPayload{Accepted: rng.Intn(1025)}
	case 4:
		env.Error = "shard <1> rejected \"x\""
		env.Batch = &BatchPayload{Accepted: rng.Intn(10)}
	case 5:
		env.Epoch = &EpochPayload{Epoch: rng.Uint64(), Unchanged: rng.Intn(2) == 0, Policy: "manual"}
	}
	return env
}

// TestReadLine covers the client's reply framing: lines longer than the
// reader's buffer, blank lines, and end of input inside a line.
func TestReadLine(t *testing.T) {
	long := `{"v":1,"ok":true,"cloak":{"cluster":[` + strings.Repeat("1234,", 5000) + `1],"cost":0,"epoch":1,"effective_k":1}}`
	input := "\n  \n" + `{"v":1,"ok":true}` + "\n" + long + "\n" + `{"ok":true}` + "\n" + `{"ok":tr`
	br := bufio.NewReaderSize(strings.NewReader(input), 16)
	var buf []byte
	for _, want := range []string{`{"v":1,"ok":true}`, long, `{"ok":true}`} {
		got, err := readLine(br, &buf)
		if err != nil || string(got) != want {
			t.Fatalf("readLine = %.60q, %v; want %.60q", got, err, want)
		}
	}
	if _, err := readLine(br, &buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("readLine at a cut line: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := readLine(bufio.NewReader(strings.NewReader(" \n")), &buf); !errors.Is(err, io.EOF) {
		t.Fatalf("readLine at a clean end: %v, want io.EOF", err)
	}
}

// benchBatch is a 128-entry upload_batch like the coordinator forwards:
// ten peers an entry, a profile on every fourth.
func benchBatch() Request {
	rng := rand.New(rand.NewSource(128))
	req := Request{V: ProtocolVersion, Op: OpUploadBatch, Uploads: make([]UploadEntry, 128)}
	for i := range req.Uploads {
		e := UploadEntry{User: int32(rng.Intn(20000)), Peers: make([]PeerRank, 10)}
		for j := range e.Peers {
			e.Peers[j] = PeerRank{Peer: int32(rng.Intn(20000)), Rank: int32(j + 1)}
		}
		if i%4 == 0 {
			e.Profile = &ProfileSpec{K: 20, MaxArea: 0.5}
		}
		req.Uploads[i] = e
	}
	return req
}

func BenchmarkParseUploadBatch(b *testing.B) {
	req := benchBatch()
	line, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for i := 0; i < b.N; i++ {
			if _, err := ParseRequest(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for i := 0; i < b.N; i++ {
			if _, err := jsonParseRequest(line); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEncodeUploadBatch(b *testing.B) {
	req := benchBatch()
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendRequest(buf[:0], &req); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var w bytes.Buffer
		enc := json.NewEncoder(&w)
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := enc.Encode(req); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(w.Len()))
	})
}

// BenchmarkCloakEnvelopeRoundTrip encodes a cloak reply on the server
// side and decodes it on the client side.
func BenchmarkCloakEnvelopeRoundTrip(b *testing.B) {
	env := Envelope{V: ProtocolVersion, OK: true, Cloak: &CloakPayload{
		Cluster: []int32{10412, 10413, 10977, 11002, 11003, 11240, 11241, 11790, 12001, 12002},
		Cost:    0, Epoch: 42, EffectiveK: 10,
	}}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendEnvelope(buf[:0], &env); err != nil {
				b.Fatal(err)
			}
			var got Envelope
			if err := decodeEnvelope(buf[:len(buf)-1], &got); err != nil || got.Cloak == nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var w bytes.Buffer
		enc := json.NewEncoder(&w)
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := enc.Encode(env); err != nil {
				b.Fatal(err)
			}
			var got Envelope
			if err := json.Unmarshal(w.Bytes(), &got); err != nil || got.Cloak == nil {
				b.Fatal(err)
			}
		}
	})
}
