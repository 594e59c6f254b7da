package main

import (
	"errors"
	"math"

	"xmovie/internal/directory"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/presentation"
	"xmovie/internal/session"
)

// fixture is a private copy of the catalogue — store and directory — that
// replays run against, so that replaying a Create or a Delete never
// disturbs the server being measured.
type fixture struct {
	cat     []catMovie
	store   *moviedb.ShardedStore
	dua     *directory.DUA
	base    directory.DN
	known   map[string]bool
	scratch string // stands in for movies the fixture does not hold
}

const fixtureScratch = "fixture-scratch"

func newFixture(seed int64, extra []string) (*fixture, error) {
	dsa := directory.NewDSA("fixture", directory.MustParseDN("c=DE/o=fixture"))
	fx := &fixture{cat: genCatalogue(seed, catalogueSize), store: moviedb.NewShardedStore(0), dua: directory.NewDUA(dsa), base: dsa.Context(),
		known: make(map[string]bool), scratch: fixtureScratch}
	add := func(name string, attrs []mcam.Attr) error {
		ma := make(moviedb.Attributes, len(attrs))
		da := map[string][]string{"objectClass": {"movie"}}
		for _, a := range attrs {
			ma[a.Name] = a.Value
			da[a.Name] = []string{a.Value}
		}
		cfg := moviedb.SynthConfig{Name: name, Frames: 100, FrameRate: 25, FrameSize: 256}
		if err := fx.store.Create(&moviedb.Movie{Name: name, Format: moviedb.FormatMJPEG, FrameRate: 25,
			Attrs: ma, Content: moviedb.NewSynthContent(cfg)}); err != nil {
			return err
		}
		fx.known[name] = true
		return fx.dua.Add(&directory.Entry{DN: fx.base.Child("cn", name), Attrs: da})
	}
	for _, m := range fx.cat {
		if err := add(m.name, m.attrs); err != nil {
			return nil, err
		}
	}
	for _, name := range append(extra, fixtureScratch) {
		if err := add(name, privateCreateAttrs); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

func (fx *fixture) name(movie string) string {
	if fx.known[movie] {
		return movie
	}
	return fx.scratch
}

type leafKind uint8

const (
	leafPDUAppendReq leafKind = iota
	leafPPDUAppendReq
	leafSPDUEncodeReq
	leafSPDUParseReq
	leafPPDUDecodeReq
	leafPDUDecodeReq
	leafStore
	leafDirectory
	leafPDUAppendResp
	leafPPDUAppendResp
	leafSPDUEncodeResp
	leafSPDUParseResp
	leafPPDUDecodeResp
	leafPDUDecodeResp
	numLeaves
)

var leafNames = [numLeaves]string{
	"mcam.pdu_append", "presentation.ppdu_append", "session.spdu_encode",
	"session.spdu_parse", "presentation.ppdu_decode", "mcam.pdu_decode",
	"moviedb.op", "directory.op",
	"mcam.pdu_append", "presentation.ppdu_append", "session.spdu_encode",
	"session.spdu_parse", "presentation.ppdu_decode", "mcam.pdu_decode",
}

// replayer pushes one request/reply pair through the layers' public
// functions, one layer at a time. One per goroutine; buffers are reused.
type replayer struct {
	fx   *fixture
	req  *mcam.Request
	resp *mcam.Response

	pdu, ppdu, spdu []byte // the message as it descends the stack
	td              presentation.TD
	dt              session.SPDU
	parsed          *session.SPDU
	decoded         *presentation.PPDU
	movie           moviedb.Movie
	attrs           moviedb.Attributes
	entry           directory.Entry
	err             error
}

func newReplayer(fx *fixture) *replayer {
	return &replayer{fx: fx, attrs: make(moviedb.Attributes, 8)}
}

// do performs one leaf. Leaves run in stack order, each consuming what the
// previous one produced.
func (rp *replayer) do(k leafKind) {
	switch k {
	case leafPDUAppendReq:
		rp.pdu, rp.err = (&mcam.PDU{Request: rp.req}).Append(rp.pdu[:0])
	case leafPDUAppendResp:
		rp.pdu, rp.err = (&mcam.PDU{Response: rp.resp}).Append(rp.pdu[:0])
	case leafPPDUAppendReq, leafPPDUAppendResp:
		rp.td = presentation.TD{ContextID: mcam.ContextID, Data: rp.pdu}
		rp.ppdu, rp.err = (&presentation.PPDU{TD: &rp.td}).Append(rp.ppdu[:0])
	case leafSPDUEncodeReq, leafSPDUEncodeResp:
		rp.dt.Type = session.SPDUData
		rp.dt.Params = append(rp.dt.Params[:0], session.Param{PI: session.PIUserData, Value: rp.ppdu})
		rp.spdu = rp.dt.Encode(rp.spdu[:0])
	case leafSPDUParseReq, leafSPDUParseResp:
		rp.parsed, rp.err = session.Parse(rp.spdu)
	case leafPPDUDecodeReq, leafPPDUDecodeResp:
		rp.decoded, rp.err = presentation.Decode(rp.parsed.UserData())
	case leafPDUDecodeReq, leafPDUDecodeResp:
		_, rp.err = mcam.Decode(rp.decoded.TD.Data)
	case leafStore:
		rp.storeOp()
	case leafDirectory:
		rp.directoryOp()
	}
}

// storeOp is the moviedb call the handler makes for the replayed request.
func (rp *replayer) storeOp() {
	st := rp.fx.store
	switch rp.req.Op {
	case mcam.OpSelect, mcam.OpQueryAttributes, mcam.OpPlay, mcam.OpSeek:
		_, rp.err = st.Get(rp.fx.name(rp.req.Movie))
	case mcam.OpModifyAttributes:
		rp.err = st.SetAttrs(rp.fx.scratch, rp.reqAttrs())
	case mcam.OpCreate:
		rp.movie = moviedb.Movie{Name: rp.req.Movie, Format: moviedb.FormatMJPEG, FrameRate: 25, Attrs: rp.reqAttrs()}
		rp.err = st.Create(&rp.movie)
	case mcam.OpDelete:
		rp.err = st.Delete(rp.req.Movie)
	case mcam.OpListMovies:
		st.List()
	}
}

func (rp *replayer) reqAttrs() moviedb.Attributes {
	clear(rp.attrs)
	for _, a := range rp.req.Attrs {
		rp.attrs[a.Name] = a.Value
	}
	return rp.attrs
}

// directoryOp mirrors what the handler does to the directory for the
// replayed request: read the entry, then add, modify or remove it.
func (rp *replayer) directoryOp() {
	dua := rp.fx.dua
	switch rp.req.Op {
	case mcam.OpCreate:
		dn := rp.fx.base.Child("cn", rp.req.Movie)
		if _, err := dua.Read(dn); !errors.Is(err, directory.ErrNoSuchEntry) {
			rp.err = err
			return
		}
		rp.entry = directory.Entry{DN: dn, Attrs: map[string][]string{"objectClass": {"movie"}}}
		for _, a := range rp.req.Attrs {
			rp.entry.Attrs[a.Name] = []string{a.Value}
		}
		rp.err = dua.Add(&rp.entry)
	case mcam.OpModifyAttributes:
		dn := rp.fx.base.Child("cn", rp.fx.scratch)
		if _, rp.err = dua.Read(dn); rp.err != nil {
			return
		}
		set := make(map[string][]string, len(rp.req.Attrs))
		var del []string
		for _, a := range rp.req.Attrs {
			if a.Value == "" {
				del = append(del, a.Name)
			} else {
				set[a.Name] = []string{a.Value}
			}
		}
		rp.err = dua.Modify(dn, set, del)
	case mcam.OpDelete:
		rp.err = dua.Remove(rp.fx.base.Child("cn", rp.req.Movie))
	}
}

// prepare and restore bracket the leaves that change the fixture, outside
// their timing: a replayed Create is undone, a replayed Delete is given
// something to delete.
func (rp *replayer) prepare(k leafKind) {
	if rp.req.Op != mcam.OpDelete {
		return
	}
	switch k {
	case leafStore:
		rp.movie = moviedb.Movie{Name: rp.req.Movie, Format: moviedb.FormatMJPEG, FrameRate: 25}
		_ = rp.fx.store.Create(&rp.movie)
	case leafDirectory:
		_ = rp.fx.dua.Add(&directory.Entry{DN: rp.fx.base.Child("cn", rp.req.Movie),
			Attrs: map[string][]string{"objectClass": {"movie"}}})
	}
}

func (rp *replayer) restore(k leafKind) {
	if rp.req.Op != mcam.OpCreate {
		return
	}
	switch k {
	case leafStore:
		_ = rp.fx.store.Delete(rp.req.Movie)
	case leafDirectory:
		_ = rp.fx.dua.Remove(rp.fx.base.Child("cn", rp.req.Movie))
	}
}

// leafReps is how often each leaf is replayed; the fastest replay is the
// one recorded, so that a preempted replay is not charged to the layer.
const leafReps = 2

// replayCall records the real call [start, end] as a root span and its
// replayed layers as children, as measured: replays that add up to more than
// the call they explain leave the call a negative self time, which the run
// counts and reports as harness.replay_inconsistent_pct.
func (w *world) replayCall(tr *tracer, rp *replayer, req *mcam.Request, resp *mcam.Response, start, end int64) {
	rp.req, rp.resp = req, resp
	op := req.Op.String()
	root := tr.add("core.call", op, -1, start, end)
	if root < 0 {
		return
	}
	for k := leafKind(0); k < numLeaves; k++ {
		if (k == leafStore || k == leafDirectory) && !rp.touches(k) {
			continue
		}
		best, bs, be := int64(math.MaxInt64), int64(0), int64(0)
		for rep := 0; rep < leafReps; rep++ {
			rp.prepare(k)
			s := nowNs()
			rp.do(k)
			e := nowNs()
			rp.restore(k)
			if e-s < best {
				best, bs, be = e-s, s, e
			}
		}
		if rp.err != nil {
			w.fail("replay of %s through %s: %v", op, leafNames[k], rp.err)
			rp.err = nil
		}
		tr.add(leafNames[k], op, root, bs, be)
	}
}

// touches reports whether the handler calls the store (or the directory)
// for the replayed request.
func (rp *replayer) touches(k leafKind) bool {
	switch rp.req.Op {
	case mcam.OpCreate, mcam.OpModifyAttributes, mcam.OpDelete:
		return true
	case mcam.OpSelect, mcam.OpQueryAttributes, mcam.OpPlay, mcam.OpListMovies:
		return k == leafStore
	case mcam.OpSeek:
		return k == leafStore && rp.req.StreamID == 0
	}
	return false
}
