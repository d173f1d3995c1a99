package main

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"strconv"

	"algrec/internal/query"
)

// The response shape of POST /v1/query's "result" field (docs/server.md).
// The benchmark renders expected answers into it and compares them with the
// daemon's bytes, so field order and tags follow the daemon's encoder.
type namedSetJSON struct {
	Name  string `json:"name"`
	Set   string `json:"set"`
	Undef string `json:"undef,omitempty"`
}

type queryAnswerJSON struct {
	Query string `json:"query"`
	Set   string `json:"set"`
	Undef string `json:"undef,omitempty"`
}

type predFactsJSON struct {
	Pred  string   `json:"pred"`
	True  []string `json:"true,omitempty"`
	Undef []string `json:"undef,omitempty"`
}

type resultJSON struct {
	Value         string            `json:"value,omitempty"`
	Defs          []namedSetJSON    `json:"defs,omitempty"`
	Queries       []queryAnswerJSON `json:"queries,omitempty"`
	Models        [][]namedSetJSON  `json:"models,omitempty"`
	IDB           []string          `json:"idb,omitempty"`
	Preds         []predFactsJSON   `json:"preds,omitempty"`
	DatalogModels [][]predFactsJSON `json:"datalogModels,omitempty"`
}

// renderOutcome converts an Outcome to the result shape.
func renderOutcome(o *query.Outcome) resultJSON {
	var res resultJSON
	if o.HasValue {
		res.Value = o.Value.String()
		return res
	}
	toSets := func(defs []query.NamedSet) []namedSetJSON {
		out := make([]namedSetJSON, 0, len(defs))
		for _, d := range defs {
			j := namedSetJSON{Name: d.Name, Set: d.Set.String()}
			if !d.Undef.IsEmpty() {
				j.Undef = d.Undef.String()
			}
			out = append(out, j)
		}
		return out
	}
	toPreds := func(m *query.DatalogModel) []predFactsJSON {
		out := make([]predFactsJSON, 0, len(m.Preds))
		for _, pf := range m.Preds {
			out = append(out, predFactsJSON{Pred: pf.Pred, True: pf.True, Undef: pf.Undef})
		}
		return out
	}
	res.Defs = toSets(o.Defs)
	for _, q := range o.Queries {
		j := queryAnswerJSON{Query: q.Src, Set: q.Set.String()}
		if !q.Undef.IsEmpty() {
			j.Undef = q.Undef.String()
		}
		res.Queries = append(res.Queries, j)
	}
	for _, m := range o.Models {
		res.Models = append(res.Models, toSets(m))
	}
	res.IDB = o.IDB
	if o.Datalog != nil {
		res.Preds = toPreds(o.Datalog)
	}
	for i := range o.DatalogModels {
		res.DatalogModels = append(res.DatalogModels, toPreds(&o.DatalogModels[i]))
	}
	return res
}

// encodeResult is the JSON encoding of a result, as the daemon's encoder
// writes it inside the response.
func encodeResult(r resultJSON) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		panic(err) // strings and slices of strings always encode
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// hashSeed keys every answer hash of one process.
var hashSeed = maphash.MakeSeed()

func hashBytes(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// queryReply is what the load generator keeps of one /v1/query response.
type queryReply struct {
	wallMS   float64
	cacheHit bool
	hash     uint64 // hash of the "result" value's bytes
}

var (
	resultKey = []byte(`"result":`)
	wallKey   = []byte(`,"wallMS":`)
	hitKey    = []byte(`"cacheHit":true`)
)

// parseReply extracts the result bytes' hash, wallMS and cacheHit from a
// success body without decoding it: the daemon writes "result" second to
// last and "wallMS" last.
func parseReply(body []byte) (queryReply, bool) {
	i := bytes.Index(body, resultKey)
	j := bytes.LastIndex(body, wallKey)
	if i < 0 || j < i {
		return queryReply{}, false
	}
	end := bytes.IndexByte(body[j:], '}')
	if end < 0 {
		return queryReply{}, false
	}
	wall, err := strconv.ParseFloat(string(body[j+len(wallKey):j+end]), 64)
	if err != nil {
		return queryReply{}, false
	}
	return queryReply{
		wallMS:   wall,
		cacheHit: bytes.Contains(body[:i], hitKey),
		hash:     hashBytes(body[i+len(resultKey) : j]),
	}, true
}
