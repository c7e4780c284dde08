//! Property-based tests for the OT substrate's data structures.

use cvc_ot::buffer::TextBuffer;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::{Component, SeqOp};
use cvc_ot::ttf::{TtfDoc, TtfOp};
use proptest::prelude::*;

/// Random edit script entries against a document of unknown length —
/// positions are reduced modulo the current length at application time.
#[derive(Debug, Clone)]
enum Edit {
    Insert(usize, String),
    Delete(usize, usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), "[a-zα-ω]{1,5}").prop_map(|(p, s)| Edit::Insert(p, s)),
        (any::<usize>(), 1usize..4).prop_map(|(p, n)| Edit::Delete(p, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The gap buffer agrees with a plain String reference under any edit
    /// script.
    #[test]
    fn gap_buffer_matches_reference(script in proptest::collection::vec(arb_edit(), 0..60)) {
        let mut buf = TextBuffer::new();
        let mut reference: Vec<char> = Vec::new();
        for e in script {
            match e {
                Edit::Insert(p, s) => {
                    let pos = p % (reference.len() + 1);
                    buf.insert_str(pos, &s);
                    for (k, c) in s.chars().enumerate() {
                        reference.insert(pos + k, c);
                    }
                }
                Edit::Delete(p, n) => {
                    if reference.is_empty() {
                        continue;
                    }
                    let pos = p % reference.len();
                    let n = n.min(reference.len() - pos);
                    let removed = buf.delete_range(pos, n);
                    let expect: String = reference.drain(pos..pos + n).collect();
                    prop_assert_eq!(removed, expect);
                }
            }
            let expect: String = reference.iter().collect();
            prop_assert_eq!(buf.to_string(), expect);
            prop_assert_eq!(buf.len(), reference.len());
        }
    }

    /// compose really is sequential application:
    /// apply(compose(a,b)) == apply(b, apply(a)).
    #[test]
    fn compose_is_sequential_application(
        doc in "[a-z]{0,12}",
        a_edit in arb_edit(),
        b_edit in arb_edit(),
    ) {
        let a = materialize(&a_edit, &doc);
        let mid = a.apply(&doc).unwrap();
        let b = materialize(&b_edit, &mid);
        let end = b.apply(&mid).unwrap();
        let ab = a.compose(&b).unwrap();
        prop_assert_eq!(ab.base_len(), doc.chars().count());
        prop_assert_eq!(ab.target_len(), end.chars().count());
        prop_assert_eq!(ab.apply(&doc).unwrap(), end);
    }

    /// invert undoes: apply(invert(a), apply(a, doc)) == doc.
    #[test]
    fn invert_undoes(doc in "[a-z]{0,12}", e in arb_edit()) {
        let a = materialize(&e, &doc);
        let post = a.apply(&doc).unwrap();
        let inv = a.invert(&doc).unwrap();
        prop_assert_eq!(inv.apply(&post).unwrap(), doc);
    }

    /// Normalization invariants hold for ops built any which way.
    #[test]
    fn seq_op_normal_form(parts in proptest::collection::vec((0u8..3, 1usize..5, "[a-z]{1,4}"), 0..10)) {
        let mut op = SeqOp::new();
        for (kind, n, text) in parts {
            match kind {
                0 => { op.retain(n); }
                1 => { op.insert(&text); }
                _ => { op.delete(n); }
            }
        }
        let comps = op.components();
        for w in comps.windows(2) {
            // No two adjacent components of the same kind.
            prop_assert!(
                std::mem::discriminant(&w[0]) != std::mem::discriminant(&w[1]),
                "adjacent same-kind: {:?}", comps
            );
            // Canonical order: never insert directly after delete.
            prop_assert!(
                !(matches!(w[0], Component::Delete(_)) && matches!(w[1], Component::Insert(_))),
                "insert after delete: {:?}", comps
            );
        }
        for c in comps {
            match c {
                Component::Retain(n) | Component::Delete(n) => prop_assert!(*n > 0),
                Component::Insert(s) => prop_assert!(!s.is_empty()),
            }
        }
    }

    /// from_pos/to_pos are effect-inverse.
    #[test]
    fn pos_round_trip(doc in "[a-z]{1,12}", e in arb_edit()) {
        let op = materialize(&e, &doc);
        let pos_ops = op.to_pos(&doc).unwrap();
        let mut buf = TextBuffer::from_str(&doc);
        for p in &pos_ops {
            p.apply(&mut buf).unwrap();
        }
        prop_assert_eq!(buf.to_string(), op.apply(&doc).unwrap());
    }

    /// TTF coordinate maps are mutually inverse over any tombstone pattern.
    #[test]
    fn ttf_coordinates_round_trip(
        text in "[a-z]{1,12}",
        kills in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut doc = TtfDoc::from_str(&text);
        for k in kills {
            let len = doc.model_len();
            doc.apply(&TtfOp::Delete { pos: k % len }).unwrap();
        }
        let vis = doc.visible_len();
        for v in 0..vis {
            let m = doc.visible_to_model_char(v);
            prop_assert_eq!(doc.model_to_visible(m), v);
        }
        // Insert positions: 0..=vis all map into the model range.
        for v in 0..=vis {
            let m = doc.visible_to_model_insert(v);
            prop_assert!(m <= doc.model_len());
        }
        // Tombstone accounting.
        let dead = doc.model_len() - vis;
        prop_assert!((doc.tombstone_ratio() - dead as f64 / doc.model_len() as f64).abs() < 1e-12);
    }
}

/// Raw material for a multi-component op: `(kind, span, text)` triples,
/// fitted to a base length by [`build_on`].
type Parts = Vec<(u8, usize, String)>;

fn arb_parts() -> impl Strategy<Value = Parts> {
    proptest::collection::vec((0u8..3, 1usize..4, "[a-cα-γ]{1,3}"), 0..8)
}

/// A normalized op on a document of `len` chars: retains and deletes are
/// clipped to what is left, inserts (multi-char, non-ASCII) go anywhere,
/// and a final retain covers the rest. Small alphabets and short spans
/// make insert ties and deletes straddling the other op's inserts common.
fn build_on(len: usize, parts: &Parts) -> SeqOp {
    let mut op = SeqOp::new();
    let mut left = len;
    for (kind, n, text) in parts {
        match kind {
            0 => {
                let n = (*n).min(left);
                op.retain(n);
                left -= n;
            }
            1 => {
                op.insert(text);
            }
            _ => {
                let n = (*n).min(left);
                op.delete(n);
                left -= n;
            }
        }
    }
    op.retain(left);
    op
}

/// The dual transform as it stood before insert texts were borrowed: each
/// insert is copied out of its component and then into the output. Kept
/// here as the reference the production transform must match exactly.
fn transform_reference(a: &SeqOp, b: &SeqOp) -> (SeqOp, SeqOp) {
    struct Cur<'a> {
        comps: &'a [Component],
        idx: usize,
        offset: usize,
    }
    impl<'a> Cur<'a> {
        fn peek(&self) -> Option<&'a Component> {
            self.comps.get(self.idx)
        }
        fn avail(&self) -> usize {
            match self.peek() {
                Some(Component::Retain(n)) | Some(Component::Delete(n)) => n - self.offset,
                Some(Component::Insert(s)) => s.chars().count() - self.offset,
                None => 0,
            }
        }
        fn consume(&mut self, n: usize) {
            self.offset += n;
            if self.avail() == 0 {
                self.idx += 1;
                self.offset = 0;
            }
        }
        fn take_all_insert(&mut self) -> String {
            let n = self.avail();
            let Some(Component::Insert(s)) = self.peek() else {
                unreachable!("insert expected")
            };
            let text: String = s.chars().skip(self.offset).take(n).collect();
            self.consume(n);
            text
        }
    }
    assert_eq!(a.base_len(), b.base_len());
    let (mut a1, mut b1) = (SeqOp::new(), SeqOp::new());
    let mut ai = Cur {
        comps: a.components(),
        idx: 0,
        offset: 0,
    };
    let mut bi = Cur {
        comps: b.components(),
        idx: 0,
        offset: 0,
    };
    loop {
        match (ai.peek(), bi.peek()) {
            (None, None) => break,
            (Some(Component::Insert(_)), _) => {
                let s = ai.take_all_insert();
                b1.retain(s.chars().count());
                a1.insert(&s);
            }
            (_, Some(Component::Insert(_))) => {
                let s = bi.take_all_insert();
                a1.retain(s.chars().count());
                b1.insert(&s);
            }
            (None, Some(_)) | (Some(_), None) => unreachable!("equal base lengths"),
            (Some(ac), Some(bc)) => {
                let n = ai.avail().min(bi.avail());
                match (ac, bc) {
                    (Component::Retain(_), Component::Retain(_)) => {
                        a1.retain(n);
                        b1.retain(n);
                    }
                    (Component::Delete(_), Component::Retain(_)) => {
                        a1.delete(n);
                    }
                    (Component::Retain(_), Component::Delete(_)) => {
                        b1.delete(n);
                    }
                    _ => {} // both deleted the same text
                }
                ai.consume(n);
                bi.consume(n);
            }
        }
    }
    (a1, b1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The borrowing dual transform equals the copying reference, and the
    /// in-place rebase equals its first half, bit for bit.
    #[test]
    fn transform_and_rebase_match_the_reference(
        doc in "[a-cα-γ]{0,8}",
        a_parts in arb_parts(),
        b_parts in arb_parts(),
        junk in "[x-z]{0,3}",
    ) {
        let len = doc.chars().count();
        let a = build_on(len, &a_parts);
        let b = build_on(len, &b_parts);
        let (ra, rb) = transform_reference(&a, &b);
        let (ta, tb) = SeqOp::transform(&a, &b).unwrap();
        prop_assert_eq!(&ta, &ra);
        prop_assert_eq!(&tb, &rb);
        // TP1 on the actual document, as a sanity anchor.
        let left = tb.apply(&a.apply(&doc).unwrap()).unwrap();
        let right = ta.apply(&b.apply(&doc).unwrap()).unwrap();
        prop_assert_eq!(left, right);
        // The spare buffer may arrive dirty; rebase must not read it.
        let mut spare = vec![Component::Insert(junk), Component::Retain(7)];
        let mut r = a.clone();
        r.rebase(&b, &mut spare).unwrap();
        prop_assert_eq!(&r, &ta);
        prop_assert!(spare.is_empty());
        // Chained rebases through one spare equal chained transforms.
        let mut r2 = b.clone();
        r2.rebase(&a, &mut spare).unwrap();
        let mut via_transform = SeqOp::transform(&b, &a).unwrap().0;
        prop_assert_eq!(&r2, &via_transform);
        let c = build_on(r2.base_len(), &a_parts);
        r2.rebase(&c, &mut spare).unwrap();
        via_transform = SeqOp::transform(&via_transform, &c).unwrap().0;
        prop_assert_eq!(&r2, &via_transform);
    }
}

#[test]
fn rebase_rejects_mismatched_bases_and_leaves_the_op_unchanged() {
    let mut a = SeqOp::from_pos(&PosOp::insert(1, "αβ"), 3);
    let before = a.clone();
    let mut spare = Vec::new();
    assert!(a.rebase(&SeqOp::identity(4), &mut spare).is_err());
    assert_eq!(a, before);
}

/// Turn an abstract edit into a SeqOp valid on `doc`.
fn materialize(e: &Edit, doc: &str) -> SeqOp {
    let len = doc.chars().count();
    match e {
        Edit::Insert(p, s) => SeqOp::from_pos(&PosOp::insert(p % (len + 1), s.clone()), len),
        Edit::Delete(p, n) => {
            if len == 0 {
                return SeqOp::identity(0);
            }
            let pos = p % len;
            let n = (*n).min(len - pos);
            let text: String = doc.chars().skip(pos).take(n).collect();
            SeqOp::from_pos(&PosOp::delete(pos, text), len)
        }
    }
}
