//! One field list per counter struct: a counter that is in the list is
//! reported by construction, and one that is not does not exist.

/// Declare a counter struct from one field list. Two forms:
///
/// * `struct Cells => struct Snapshot { a, b }` — `Cells` holds one
///   `AtomicU64` per field (`Debug, Default`), `Snapshot` the same fields as
///   plain `u64`s, and `Cells::snapshot()` reads every cell (relaxed: the
///   cells are statistics and publish no other data).
/// * `struct Plain { a, b }` — plain `u64` counters (`Debug, Default, Clone,
///   Copy, PartialEq, Eq`).
///
/// Every plain struct gets `fields()`: its `(name, value)` pairs in
/// declaration order, which is what reports emit. Attributes (doc comments)
/// on the structs and on each field are kept; a field's visibility applies
/// to both generated structs.
#[macro_export]
macro_rules! counters {
    (
        $(#[$cells_meta:meta])* $cells_vis:vis struct $cells:ident
        => $(#[$snap_meta:meta])* $snap_vis:vis struct $snap:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident),* $(,)?
        }
    ) => {
        $(#[$cells_meta])*
        #[derive(Debug, Default)]
        $cells_vis struct $cells {
            $($(#[$field_meta])* $field_vis $field: ::std::sync::atomic::AtomicU64,)*
        }

        impl $cells {
            /// The current value of every counter.
            $snap_vis fn snapshot(&self) -> $snap {
                $snap {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)*
                }
            }
        }

        $crate::counters! {
            $(#[$snap_meta])* $snap_vis struct $snap {
                $($(#[$field_meta])* $field_vis $field),*
            }
        }
    };
    (
        $(#[$meta:meta])* $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: u64,)*
        }

        impl $name {
            /// Every counter as a `(name, value)` pair, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    counters! {
        /// Cells.
        struct Cells =>
        /// Snapshot.
        pub struct Snap {
            /// First.
            pub first,
            pub second,
        }
    }

    #[test]
    fn one_list_yields_cells_snapshot_and_ordered_fields() {
        let c = Cells::default();
        c.second.fetch_add(7, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.fields(), [("first", 0), ("second", 7)]);
        assert_ne!(s, Snap::default());
    }
}
