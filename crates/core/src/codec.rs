//! The table-driven JSON codec behind manifests, result lines and fabric
//! messages.
//!
//! Every wire type implements [`Wire`] (a whole JSON value) and, when it is a
//! run of object members, [`Fields`]. Encoding writes the canonical compact
//! text straight into a `String` — [`Wire::write`], and [`Fields::write_fields`]
//! through an [`Obj`], which places the braces, the commas and the quoted
//! keys — with the scalar writers of [`crate::json`], so no value tree is
//! built on the way out. The scalars, `Vec` and `Option` are implemented here
//! once; the regular composite shapes are one table row per member through
//! three macros — `wire_struct!` (a struct as an object), `wire_labels!` (an
//! enum as a fixed label set) and `wire_tagged!` (an enum as a tagged
//! object) — and the few irregular shapes are short hand-written impls next
//! to their types. A row names its member once: the writer, the decoder and
//! the exported key list ([`keys_of`], which `simlint wire` and the fixture
//! test read) all come from it. A caller that wants a [`JsonValue`] gets one
//! by parsing the written text ([`Wire::encode`]).
//!
//! Decoding is strict and located. An object member no table row consumed —
//! misspelt, unknown or repeated — is an error, and every error carries the
//! [`Path`] of the offending value (`[3].workloads[0].pairs.rows[1][2]`) and
//! names the value's kind, never its contents.

use crate::json::{write_f64, write_str, write_u64, JsonError, JsonValue};
use hpcc_types::{Bandwidth, Duration};
use std::collections::BTreeSet;
use std::fmt;

/// Where a value sits in the document being decoded; a stack-allocated
/// chain, so the success path formats nothing.
#[derive(Clone, Copy, Debug)]
pub enum Path<'a> {
    /// The document itself.
    Root,
    /// A member of an object.
    Key(&'a Path<'a>, &'a str),
    /// An element of an array.
    Index(&'a Path<'a>, usize),
}

impl<'a> Path<'a> {
    /// The path of member `key` of the value at `self`.
    pub fn key(&'a self, key: &'a str) -> Path<'a> {
        Path::Key(self, key)
    }

    /// The path of element `i` of the value at `self`.
    pub fn index(&'a self, i: usize) -> Path<'a> {
        Path::Index(self, i)
    }

    /// A decode error located at this path.
    pub fn error(&self, msg: impl fmt::Display) -> JsonError {
        match self {
            Path::Root => JsonError(msg.to_string()),
            _ => JsonError(format!("{self}: {msg}")),
        }
    }

    /// Locate an error of the JSON module (`expected number, got string`).
    pub fn locate<T>(&self, r: Result<T, JsonError>) -> Result<T, JsonError> {
        r.map_err(|e| self.error(e.0))
    }
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root => Ok(()),
            Path::Key(Path::Root, key) => write!(f, "{key}"),
            Path::Key(parent, key) => write!(f, "{parent}.{key}"),
            Path::Index(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// A string from the input, quoted for an error message and cut to 40
/// bytes, so no message grows with the input.
pub fn quoted(s: &str) -> String {
    let mut end = s.len().min(40);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    let cut = if end < s.len() { "…" } else { "" };
    JsonValue::Str(s[..end].to_string()).render() + cut
}

/// A type with a canonical JSON form.
pub trait Wire: Sized {
    /// Append the canonical compact JSON text.
    fn write(&self, out: &mut String);
    /// The canonical compact JSON text.
    fn text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
    /// The canonical JSON value: [`Wire::text`], parsed.
    fn encode(&self) -> JsonValue {
        JsonValue::parse(&self.text()).expect("the codec writes valid JSON")
    }
    /// Decode the value found at `at`.
    fn decode(v: &JsonValue, at: &Path<'_>) -> Result<Self, JsonError>;
    /// Append every member name this type (and the types inside it) can put
    /// on the wire.
    fn keys(_out: &mut Vec<&'static str>) {}
}

/// A type whose JSON form is a run of members inside an object — a whole
/// object of its own ([`Wire`] comes with it), or flattened into its
/// parent's (`..field` rows, `Variant(..)` arms).
pub trait Fields: Sized {
    /// Write the members in canonical order.
    fn write_fields(&self, obj: &mut Obj<'_>);
    /// Take the members out of `m`.
    fn decode_fields(m: &mut Members<'_>) -> Result<Self, JsonError>;
    /// See [`Wire::keys`].
    fn field_keys(out: &mut Vec<&'static str>);
}

impl<T: Fields> Wire for T {
    fn write(&self, out: &mut String) {
        let mut obj = Obj::open(out);
        self.write_fields(&mut obj);
        obj.close();
    }

    fn decode(v: &JsonValue, at: &Path<'_>) -> Result<Self, JsonError> {
        let mut m = Members::open(v, at)?;
        let value = T::decode_fields(&mut m)?;
        m.finish()?;
        Ok(value)
    }

    fn keys(out: &mut Vec<&'static str>) {
        T::field_keys(out)
    }
}

/// An object being written: [`Obj::open`] writes `{`, each member its
/// separating comma and quoted key, [`Obj::close`] the `}`.
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Start an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, empty: true }
    }

    /// Start member `key`; its value is to be written to the returned
    /// buffer.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(key, self.out);
        self.out.push(':');
        self.out
    }

    /// Write member `key` with value `v`.
    pub fn put<T: Wire>(&mut self, key: &str, v: &T) {
        v.write(self.key(key))
    }

    /// End the object.
    pub fn close(self) {
        self.out.push('}')
    }
}

/// The sorted member names `T` can put on the wire.
pub fn keys_of<T: Wire>() -> BTreeSet<&'static str> {
    let mut out = Vec::new();
    T::keys(&mut out);
    out.into_iter().collect()
}

/// The members of one object being decoded, remembering which were taken so
/// that [`Members::finish`] can reject the rest.
pub struct Members<'a> {
    pairs: &'a [(String, JsonValue)],
    at: &'a Path<'a>,
    /// Bit `i` is set once `pairs[i]` was taken. No table has 64 rows, so a
    /// member past the 64th is unknown or repeated whatever the mask says.
    taken: u64,
}

impl<'a> Members<'a> {
    /// Open the object at `at`.
    pub fn open(v: &'a JsonValue, at: &'a Path<'a>) -> Result<Self, JsonError> {
        match v {
            JsonValue::Object(pairs) => Ok(Members {
                pairs,
                at,
                taken: 0,
            }),
            other => Err(at.error(format!("expected object, got {}", other.kind()))),
        }
    }

    /// Take member `key`, if present.
    pub fn take(&mut self, key: &str) -> Option<&'a JsonValue> {
        let i = self.pairs.iter().position(|(k, _)| k == key)?;
        self.taken |= 1u64.checked_shl(i as u32).unwrap_or(0);
        Some(&self.pairs[i].1)
    }

    /// Decode member `key`; absent is an error.
    pub fn required<T: Wire>(&mut self, key: &str) -> Result<T, JsonError> {
        match self.take(key) {
            Some(v) => T::decode(v, &self.at.key(key)),
            None => Err(self.at.key(key).error("missing member")),
        }
    }

    /// Decode member `key`; absent means `default`.
    pub fn defaulted<T: Wire>(&mut self, key: &str, default: T) -> Result<T, JsonError> {
        match self.take(key) {
            Some(v) => T::decode(v, &self.at.key(key)),
            None => Ok(default),
        }
    }

    /// The string member `key` (a tag), borrowed from the document.
    pub fn tag(&mut self, key: &str) -> Result<&'a str, JsonError> {
        match self.take(key) {
            Some(v) => self.at.key(key).locate(v.as_str()),
            None => Err(self.at.key(key).error("missing member")),
        }
    }

    /// The path of this object, for errors about it or its members.
    pub fn at(&self) -> &'a Path<'a> {
        self.at
    }

    /// Every member must have been taken: the first that was not is named
    /// with its path, as repeated or as unknown.
    pub fn finish(self) -> Result<(), JsonError> {
        for (i, (key, _)) in self.pairs.iter().enumerate() {
            if i >= 64 || self.taken >> i & 1 == 0 {
                let repeated = self.pairs[..i].iter().any(|(k, _)| k == key);
                let what = if repeated { "repeated" } else { "unknown" };
                return Err(self.at.key(key).error(format!("{what} member")));
            }
        }
        Ok(())
    }
}

/// The one of `variants` whose label (as `label_of` gives it) is `label`.
pub fn from_label<T: Clone>(
    label: &str,
    at: &Path<'_>,
    variants: &[T],
    label_of: impl Fn(&T) -> &'static str,
) -> Result<T, JsonError> {
    let found = variants.iter().find(|variant| label_of(variant) == label);
    found.cloned().ok_or_else(|| unknown_label(label, at))
}

/// The error for a label no table row lists.
pub fn unknown_label(label: &str, at: &Path<'_>) -> JsonError {
    at.error(format!("unknown label {}", quoted(label)))
}

/// The scalars, one row each: how `&Self` is written to `out`, how a
/// located value decodes.
macro_rules! wire_scalars {
    ($( $ty:ty: |$x:ident, $out:ident| $write:expr, |$v:ident, $at:ident| $decode:expr; )*) => {$(
        impl Wire for $ty {
            fn write(&self, $out: &mut String) {
                let $x = self;
                $write
            }
            fn decode($v: &JsonValue, $at: &Path<'_>) -> Result<Self, JsonError> {
                $decode
            }
        }
    )*};
}

wire_scalars! {
    u64: |n, out| write_u64(*n, out), |v, at| at.locate(v.as_u64());
    u32: |n, out| write_u64(u64::from(*n), out), |v, at| narrow(v, at, "u32");
    u8: |n, out| write_u64(u64::from(*n), out), |v, at| narrow(v, at, "u8");
    usize: |n, out| write_u64(*n as u64, out), |v, at| narrow(v, at, "usize");
    f64: |x, out| write_f64(*x, out), |v, at| at.locate(v.as_f64());
    bool: |b, out| out.push_str(if *b { "true" } else { "false" }), |v, at| at.locate(v.as_bool());
    String: |s, out| write_str(s, out), |v, at| at.locate(v.as_str()).map(str::to_string);
    // Exact picoseconds (member names end in `_ps`) and bits per second
    // (`_bps`).
    Duration: |d, out| write_u64(d.as_ps(), out), |v, at| u64::decode(v, at).map(Duration::from_ps);
    Bandwidth: |b, out| write_u64(b.as_bps(), out), |v, at| u64::decode(v, at).map(Bandwidth::from_bps);
}

/// An unsigned integer too wide for its field is a decode error, never a
/// truncation.
fn narrow<T: TryFrom<u64>>(v: &JsonValue, at: &Path<'_>, ty: &str) -> Result<T, JsonError> {
    let n = u64::decode(v, at)?;
    T::try_from(n).map_err(|_| at.error(format!("{n} out of range for {ty}")))
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }
    fn decode(v: &JsonValue, at: &Path<'_>) -> Result<Self, JsonError> {
        let items = at.locate(v.as_array())?;
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            out.push(T::decode(item, &at.index(i))?);
        }
        Ok(out)
    }
    fn keys(out: &mut Vec<&'static str>) {
        T::keys(out)
    }
}

/// `null` is `None`.
impl<T: Wire> Wire for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
    fn decode(v: &JsonValue, at: &Path<'_>) -> Result<Self, JsonError> {
        match v {
            JsonValue::Null => Ok(None),
            other => T::decode(other, at).map(Some),
        }
    }
    fn keys(out: &mut Vec<&'static str>) {
        T::keys(out)
    }
}

/// [`Wire::keys`] of the member a table row names or flattens; the type is
/// whatever the row's field projection returns, so tables never spell field
/// types.
pub fn member_keys<S, T: Wire>(_: impl Fn(&S) -> &T, out: &mut Vec<&'static str>) {
    T::keys(out)
}

/// One table row, shared by `wire_struct!` and the struct-like arms of
/// `wire_tagged!`: `field: "key"` (required), `field: "key" = default`
/// (omitted when equal to the default, the default when absent) and
/// `field: ..` (the field's own members, flattened in place).
macro_rules! wire_row {
    (@put $obj:ident, $v:expr, ..) => {
        $crate::codec::Fields::write_fields($v, $obj)
    };
    (@put $obj:ident, $v:expr, $key:literal) => {
        $obj.put($key, $v)
    };
    (@put $obj:ident, $v:expr, $key:literal = $default:expr) => {
        if *$v != $default {
            $obj.put($key, $v)
        }
    };
    (@get $m:ident, ..) => {
        $crate::codec::Fields::decode_fields($m)?
    };
    (@get $m:ident, $key:literal) => {
        $m.required($key)?
    };
    (@get $m:ident, $key:literal = $default:expr) => {
        $m.defaulted($key, $default)?
    };
    (@keys $out:ident, $field:expr, ..) => {
        $crate::codec::member_keys($field, $out)
    };
    (@keys $out:ident, $field:expr, $key:literal $(= $default:expr)?) => {
        $out.push($key);
        $crate::codec::member_keys($field, $out)
    };
}
pub(crate) use wire_row;

/// A struct as a JSON object, one row per member (see `wire_row!` for the
/// row forms). Fields that never cross the wire are listed after `skip`
/// with the value decoding gives them.
macro_rules! wire_struct {
    ($ty:ty {
        $( $f:ident : $key:tt $(= $default:expr)? ),* $(,)?
    } $( skip { $( $sf:ident : $sv:expr ),* $(,)? } )?) => {
        impl $crate::codec::Fields for $ty {
            fn write_fields(&self, obj: &mut $crate::codec::Obj<'_>) {
                $( $crate::codec::wire_row!(@put obj, &self.$f, $key $(= $default)?); )*
            }
            fn decode_fields(
                m: &mut $crate::codec::Members<'_>,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $( $f: $crate::codec::wire_row!(@get m, $key $(= $default)?), )*
                    $( $( $sf: $sv, )* )?
                })
            }
            fn field_keys(out: &mut Vec<&'static str>) {
                $( $crate::codec::wire_row!(@keys out, |s: &Self| &s.$f, $key $(= $default)?); )*
            }
        }
    };
}
pub(crate) use wire_struct;

/// An enum as a fixed set of label strings. The labels are the ones
/// `$label` (a `fn(Self) -> &'static str`, usually the type's display
/// label) gives the listed variants, so they exist once.
macro_rules! wire_labels {
    ($ty:ty, $label:path { $( $variant:ident ),* $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn write(&self, out: &mut String) {
                $crate::json::write_str($label(*self), out)
            }
            fn decode(
                v: &$crate::json::JsonValue,
                at: &$crate::codec::Path<'_>,
            ) -> Result<Self, $crate::json::JsonError> {
                let label = at.locate(v.as_str())?;
                $crate::codec::from_label(label, at, &[$( Self::$variant ),*], |v| $label(*v))
            }
        }
    };
}
pub(crate) use wire_labels;

/// An enum as an object whose `$tag` member selects the variant. Arms:
/// `"Label" => Variant { rows }` (struct-like or unit; rows as in
/// `wire_struct!`), `"Label" => Variant("key")` and `"Label" => Variant(..)`
/// (one field under a key, or flattened beside the tag), and a last
/// `else => Variant` for one field whose type is tagged by the same member
/// itself.
macro_rules! wire_tagged {
    ($ty:ty, $tag:literal {
        $( $label:literal => $variant:ident $shape:tt ),* $(,)?
        $( else => $rest:ident )?
    }) => {
        impl $crate::codec::Fields for $ty {
            fn write_fields(&self, obj: &mut $crate::codec::Obj<'_>) {
                $( $crate::codec::wire_tagged!(@arm $variant $shape put self, obj, $tag, $label); )*
                $( if let Self::$rest(inner) = self {
                    $crate::codec::Fields::write_fields(inner, obj)
                } )?
            }
            #[allow(unreachable_code)]
            fn decode_fields(
                m: &mut $crate::codec::Members<'_>,
            ) -> Result<Self, $crate::json::JsonError> {
                let label = m.tag($tag)?;
                $( if label == $label {
                    return Ok($crate::codec::wire_tagged!(@arm $variant $shape get m));
                } )*
                $( return Ok(Self::$rest($crate::codec::Fields::decode_fields(m)?)); )?
                Err($crate::codec::unknown_label(label, &m.at().key($tag)))
            }
            fn field_keys(out: &mut Vec<&'static str>) {
                out.push($tag);
                $( $crate::codec::wire_tagged!(@arm $variant $shape keys out); )*
                $( $crate::codec::member_keys(
                    |s: &Self| match s { Self::$rest(inner) => inner, _ => unreachable!() },
                    out,
                ); )?
            }
        }
    };
    // Both arm shapes become `[field binding: row, …]`: a tuple variant's
    // one field is field `0`.
    (@arm $variant:ident ($key:tt) $($op:tt)*) => {
        $crate::codec::wire_tagged!(@$($op)* => $variant [0 inner: $key])
    };
    (@arm $variant:ident { $( $f:ident : $key:tt $(= $default:expr)? ),* $(,)? } $($op:tt)*) => {
        $crate::codec::wire_tagged!(@$($op)* => $variant [$( $f $f: $key $(= $default)? ),*])
    };
    (@put $self:ident, $obj:ident, $tag:literal, $label:literal => $variant:ident
        [$( $f:tt $b:ident : $key:tt $(= $default:expr)? ),*]) => {
        if let Self::$variant { $( $f: $b ),* } = $self {
            $crate::json::write_str($label, $obj.key($tag));
            $( $crate::codec::wire_row!(@put $obj, $b, $key $(= $default)?); )*
        }
    };
    (@get $m:ident => $variant:ident [$( $f:tt $b:ident : $key:tt $(= $default:expr)? ),*]) => {
        Self::$variant { $( $f: $crate::codec::wire_row!(@get $m, $key $(= $default)?) ),* }
    };
    (@keys $out:ident => $variant:ident [$( $f:tt $b:ident : $key:tt $(= $default:expr)? ),*]) => {
        $( $crate::codec::wire_row!(
            @keys $out,
            |s: &Self| match s { Self::$variant { $f: $b, .. } => $b, _ => unreachable!() },
            $key
        ); )*
    };
}
pub(crate) use wire_tagged;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::wire::{decode_result_line, encode_result_line, FabricMsg};

    /// The writers emit exactly the compact canonical form: parsing what
    /// they wrote and rendering the tree gives the same bytes back, for
    /// every fabric message and both every-member fixtures.
    #[test]
    fn written_text_is_the_compact_canonical_form() {
        let manifest = include_str!("../tests/fixtures/every_member.json").trim_end();
        let campaign = Campaign::from_json_str(manifest).unwrap();
        assert_eq!(campaign.to_json_string(), manifest);
        let mut texts = vec![campaign.to_json_string()];
        let mut msgs = vec![
            FabricMsg::Hello {
                worker: "w\"0\"\n".to_string(),
            },
            FabricMsg::Manifest { campaign },
            FabricMsg::Lease {
                indices: vec![0, 7, usize::MAX],
            },
            FabricMsg::Heartbeat { executed: u64::MAX },
            FabricMsg::Bye,
        ];
        for line in include_str!("../tests/fixtures/every_member.jsonl").lines() {
            let (index, result) = decode_result_line(line).unwrap();
            assert_eq!(encode_result_line(index, &result), line);
            texts.push(line.to_string());
            msgs.push(FabricMsg::Result {
                index,
                result: Box::new(result),
            });
        }
        texts.extend(msgs.iter().map(Wire::text));
        for text in &texts {
            assert_eq!(JsonValue::parse(text).unwrap().render(), *text);
        }
    }
}
