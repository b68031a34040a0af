package campaignd

import "sync"

// maxKeptSpecBytes bounds the spec bodies a scheduler keeps parsed
// (keptSpecs), counted in body bytes: four bodies of the largest size a
// request may carry.
const maxKeptSpecBytes = 4 * MaxSpecBytes

// keptSpecs is the specs a scheduler parsed, keyed by the exact bytes
// they were parsed from: the body of a POST /runs or a run's stored
// spec.json (the same bytes). A body seen again is handed the spec
// parsed the first time, inline universe included, with nothing decoded
// or validated again. Only a body that parsed and validated is kept, so
// a refused one is refused afresh, with the same error, every time. The
// kept bodies add up to at most maxKeptSpecBytes; past that the oldest
// goes. A kept spec is shared by every run of its body and read
// concurrently: nothing writes to it.
type keptSpecs struct {
	mu    sync.Mutex
	m     map[string]*Spec
	order []string // the keys, oldest first
	bytes int      // the keys' total length
}

// spec is ParseSpec of data, kept.
func (k *keptSpecs) spec(data []byte) (*Spec, error) {
	k.mu.Lock()
	spec := k.m[string(data)]
	k.mu.Unlock()
	if spec != nil {
		return spec, nil
	}
	spec, err := ParseSpec(data)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if prev := k.m[string(data)]; prev != nil {
		// Parsed concurrently by another request: hand out the one kept.
		return prev, nil
	}
	if k.m == nil {
		k.m = map[string]*Spec{}
	}
	key := string(data)
	k.m[key] = spec
	k.order = append(k.order, key)
	k.bytes += len(key)
	for k.bytes > maxKeptSpecBytes {
		oldest := k.order[0]
		k.order = k.order[1:]
		k.bytes -= len(oldest)
		delete(k.m, oldest)
	}
	return spec, nil
}
