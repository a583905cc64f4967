package value

import "unsafe"

// StrView returns a Str datum whose string is b's bytes themselves, not
// a copy of them. The datum is only as good as b: it reads whatever b
// holds later, so it must not outlive b's current contents — a decoded
// tuple's strings die with the pinned page or mapped generation they
// were read from (storage.DecodeTuple). A caller that keeps the datum
// longer copies its bytes (Clone, CloneStrs).
//
// This is the one place the database kernel uses package unsafe.
func StrView(b []byte) Value {
	if len(b) == 0 {
		return Value{T: Str}
	}
	return Value{T: Str, S: unsafe.String(&b[0], len(b))}
}
