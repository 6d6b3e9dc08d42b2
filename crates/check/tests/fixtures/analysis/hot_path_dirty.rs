//! Seeded hot-path bugs: per-event allocation and formatting inside a
//! helper reachable from the `translate_batch` hot root. Expected
//! findings, all in `resolve`:
//!   1. `format!` builds a key string per translated address.
//!   2. `.clone()` copies the name table per event.
//!   3. `Vec::new` allocates a scratch buffer per event.
//! `diagnostics` contains the same machinery but is only reachable from
//! the non-hot `report`, so it must NOT fire — that is the scoping the
//! rule's downward call-graph walk provides.

pub struct Engine {
    names: Vec<String>,
}

impl Engine {
    fn translate_batch(&mut self, vpns: &[u64], out: &mut Vec<u64>) {
        for &vpn in vpns {
            out.push(self.resolve(vpn));
        }
    }

    fn resolve(&mut self, vpn: u64) -> u64 {
        let key = format!("vpn-{vpn}");
        let cached = self.names.clone();
        let mut scratch: Vec<u64> = Vec::new();
        scratch.push(vpn);
        (key.len() as u64) + (cached.len() as u64) + scratch[0]
    }

    fn diagnostics(&self) -> String {
        format!("{} names interned", self.names.len())
    }

    fn report(&self) -> String {
        self.diagnostics()
    }
}
