// Package statecheck renders the state reachable from a value as text, so
// that a test can compare two runs which should agree (DESIGN.md §14). It
// walks the value through reflect, unexported fields included, in a fixed
// order: struct fields in declaration order, slices up to their length,
// map entries sorted by their rendered keys. A pointer is followed once,
// numbered by first visit (#n), and rendered as @n when met again, so
// cycles end and aliasing shows. A func is named by runtime.FuncForPC.
//
// Only tests import this package; it imports nothing from the repository,
// so the packages it inspects may use it in their own tests.
package statecheck

import (
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// skip names the fields Dump leaves out, as "pkgpath.Type.field". Each is
// storage layout, not state: two runs that agree on everything else
// behave alike whatever these hold.
var skip = map[string]bool{
	// An event handle's slab index: compaction recycles records, so the
	// index moves, and the handle finds its record by seq.
	"macaw/internal/sim.Event.e": true,
	// The record slab, its free list and the spare generators Recycle
	// hands on: the pending events are rendered from the queue instead
	// (see events).
	"macaw/internal/sim.Simulator.slab":   true,
	"macaw/internal/sim.Simulator.free":   true,
	"macaw/internal/sim.Simulator.spares": true,
	// A station's dead packets, kept for reuse: the SPI lets the host
	// overwrite a packet once it is completed.
	"macaw/internal/core.Station.free": true,
}

// eventQueue is the simulator's heap, rendered by events.
const eventQueue = "macaw/internal/sim.Simulator.queue"

// Dump renders the state reachable from v, one line per scalar or scalar
// slice, each led by its path from the nearest numbered pointer.
func Dump(v any) []byte {
	w := walker{seen: make(map[ptrKey]int)}
	w.value(reflect.ValueOf(v), "$")
	return w.b
}

type ptrKey struct {
	p uintptr
	t reflect.Type
}

type walker struct {
	b    []byte
	seen map[ptrKey]int
}

func (w *walker) line(path, s string) {
	w.b = append(append(append(append(w.b, path...), '='), s...), '\n')
}

func (w *walker) value(v reflect.Value, path string) {
	k := v.Kind()
	if k == reflect.Invalid || (k == reflect.Pointer || k == reflect.Interface) && v.IsNil() {
		w.line(path, "nil")
		return
	}
	if s, ok := scalar(v); ok {
		w.line(path, s)
		return
	}
	switch k {
	case reflect.Pointer:
		k := ptrKey{v.Pointer(), v.Type()}
		if n, ok := w.seen[k]; ok {
			w.line(path, "@"+strconv.Itoa(n))
			return
		}
		n := len(w.seen) + 1
		w.seen[k] = n
		id := "#" + strconv.Itoa(n)
		w.line(path, id)
		w.value(v.Elem(), id)
	case reflect.Interface:
		w.value(v.Elem(), path+".("+v.Elem().Type().String()+")")
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			name := t.Field(i).Name
			switch key := t.PkgPath() + "." + t.Name() + "." + name; {
			case skip[key]:
			case key == eventQueue:
				w.events(v, path)
			default:
				w.value(v.Field(i), path+"."+name)
			}
		}
	case reflect.Slice, reflect.Array:
		if s, ok := scalars(v); ok {
			w.line(path, s)
			return
		}
		w.line(path, "["+strconv.Itoa(v.Len())+"]")
		for i := 0; i < v.Len(); i++ {
			w.value(v.Index(i), path+"["+strconv.Itoa(i)+"]")
		}
	case reflect.Map:
		type entry struct {
			key string
			v   reflect.Value
		}
		var es []entry
		for it := v.MapRange(); it.Next(); {
			es = append(es, entry{keyLabel(it.Key()), it.Value()})
		}
		sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
		w.line(path, "map["+strconv.Itoa(len(es))+"]")
		for _, e := range es {
			w.value(e.v, path+"["+e.key+"]")
		}
	default: // chan, unsafe.Pointer: identity only
		w.line(path, v.Type().String())
	}
}

// events renders the simulator sim's pending events in firing order, each
// with its record, then the free list's length. The heap's array order
// and the slab indices are layout: compaction changes both and no event's
// firing.
func (w *walker) events(sim reflect.Value, path string) {
	q, slab := sim.FieldByName("queue"), sim.FieldByName("slab")
	order := make([]int, q.Len())
	for i := range order {
		order[i] = i
	}
	when := func(i int) int64 { return q.Index(i).FieldByName("when").Int() }
	key := func(i int) uint64 { return q.Index(i).FieldByName("key").Uint() }
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		return when(i) < when(j) || when(i) == when(j) && key(i) < key(j)
	})
	w.line(path+".queue", "["+strconv.Itoa(len(order))+"]")
	for n, i := range order {
		p := path + ".queue[" + strconv.Itoa(n) + "]"
		w.line(p, strconv.FormatInt(when(i), 10)+" "+strconv.FormatUint(key(i), 10))
		w.value(slab.Index(int(q.Index(i).FieldByName("rec").Int())), p)
	}
	w.line(path+".free", "["+strconv.Itoa(sim.FieldByName("free").Len())+"]")
}

// keyLabel renders a map key on its own, pointers by content, so that
// entries sort the same in every run.
func keyLabel(k reflect.Value) string {
	if s, ok := scalar(k); ok {
		return s
	}
	sub := walker{seen: make(map[ptrKey]int)}
	sub.value(k, "")
	return strings.ReplaceAll(strings.TrimSuffix(string(sub.b), "\n"), "\n", " ")
}

// scalar renders a bool, number, string or func.
func scalar(v reflect.Value) (string, bool) {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.FormatBool(v.Bool()), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.FormatUint(v.Uint(), 10), true
	case reflect.Float32, reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, v.Type().Bits()), true
	case reflect.Complex64, reflect.Complex128:
		return strconv.FormatComplex(v.Complex(), 'g', -1, v.Type().Bits()), true
	case reflect.String:
		return strconv.Quote(v.String()), true
	case reflect.Func:
		if f := runtime.FuncForPC(v.Pointer()); f != nil {
			return f.Name(), true
		}
		return "nil", true
	}
	return "", false
}

// scalars renders a slice or array of scalars on one line.
func scalars(v reflect.Value) (string, bool) {
	if _, ok := scalar(reflect.Zero(v.Type().Elem())); !ok {
		return "", false
	}
	s := make([]string, v.Len())
	for i := range s {
		s[i], _ = scalar(v.Index(i))
	}
	return "[" + strings.Join(s, " ") + "]", true
}
