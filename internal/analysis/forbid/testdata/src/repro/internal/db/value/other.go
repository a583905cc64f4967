package value

import u "unsafe" // want "\"unsafe\" is forbidden here: decoded strings view page bytes"

func size(x int) uintptr { return u.Sizeof(x) }
