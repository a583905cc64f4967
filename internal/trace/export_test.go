package trace

// AppendEvents exposes the recording's plain append to the external
// tests.
var AppendEvents = appendEvents
