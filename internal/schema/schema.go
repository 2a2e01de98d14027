// Package schema provides the typed layer above raw PDL properties: a
// registry of property specifications grouped into versioned subschemas, unit
// parsing for quantitative values, and a validator that checks a platform's
// descriptors against the registered schemas.
//
// It plays the role the XML Schema Definition (XSD) plays in the paper:
// predefined Descriptor/Property subschemas have unique identification and
// versioning, new subschemas for novel platforms can be registered at any
// time, and subschemas inherit the base property vocabulary (schema
// inheritance).
package schema

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/units"
)

// Kind classifies the value space of a property.
type Kind int

const (
	// KindString accepts any value (the base key/value mechanism).
	KindString Kind = iota
	// KindInt requires a decimal integer.
	KindInt
	// KindFloat requires a decimal floating-point number.
	KindFloat
	// KindBool requires "true" or "false".
	KindBool
	// KindSize requires an integer with an optional size unit (B/kB/MB/GB).
	KindSize
	// KindFrequency requires a number with a frequency unit (Hz/kHz/MHz/GHz).
	KindFrequency
	// KindBandwidth requires a number with a rate unit (B/s .. GB/s).
	KindBandwidth
	// KindDuration requires a number with a time unit (ns/us/ms/s).
	KindDuration
	// KindEnum requires one of a fixed value set.
	KindEnum
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindSize:
		return "size"
	case KindFrequency:
		return "frequency"
	case KindBandwidth:
		return "bandwidth"
	case KindDuration:
		return "duration"
	case KindEnum:
		return "enum"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes one property: its value kind, whether a unit is mandatory,
// and for enums the allowed values.
type Spec struct {
	Name     string
	Kind     Kind
	Enum     []string // allowed values for KindEnum
	Doc      string   // one-line description for tooling output
	NeedUnit bool     // quantitative kinds: require an explicit unit
}

// check validates a property value against the spec.
func (s Spec) check(p core.Property) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("property %s: "+format, append([]any{p.Name}, args...)...)
	}
	if s.NeedUnit && p.Unit == "" {
		return fail("missing unit (kind %s)", s.Kind)
	}
	var err error // a unit table's verdict on a quantitative kind
	switch s.Kind {
	case KindString:
		return nil
	case KindInt:
		if _, err := strconv.ParseInt(p.Value, 10, 64); err != nil {
			return fail("value %q is not an integer", p.Value)
		}
	case KindFloat:
		if _, err := strconv.ParseFloat(p.Value, 64); err != nil {
			return fail("value %q is not a number", p.Value)
		}
	case KindBool:
		if p.Value != "true" && p.Value != "false" {
			return fail("value %q is not a bool", p.Value)
		}
	case KindSize:
		_, err = units.Size(p.Value, p.Unit)
	case KindFrequency:
		_, err = units.Frequency(p.Value, p.Unit)
	case KindBandwidth:
		_, err = units.Bandwidth(p.Value, p.Unit)
	case KindDuration:
		_, err = units.Duration(p.Value, p.Unit)
	case KindEnum:
		for _, v := range s.Enum {
			if p.Value == v {
				return nil
			}
		}
		return fail("value %q not in enum %v", p.Value, s.Enum)
	}
	if err != nil {
		return fail("schema: %v", err)
	}
	return nil
}
