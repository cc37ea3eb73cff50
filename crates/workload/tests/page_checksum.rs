//! The page checksum on real LINEITEM pages: flipping any single body byte,
//! under several masks, is caught both by `PageBuf::verify` and by
//! `PageBuf::from_bytes` (the path every flash read takes).

use smartssd_storage::page::PageError;
use smartssd_storage::{Layout, PageBuf, TableBuilder};
use smartssd_workload::tpch;

/// The first page of a LINEITEM SF 0.001 image in `layout`.
fn lineitem_page(layout: Layout) -> PageBuf {
    let mut b = TableBuilder::new("lineitem", tpch::lineitem_schema(), layout);
    b.extend(tpch::lineitem_rows(0.001, 11));
    b.finish().pages()[0].clone()
}

#[test]
fn every_single_byte_flip_is_detected() {
    for layout in [Layout::Pax, Layout::Nsm] {
        let page = lineitem_page(layout);
        assert!(page.tuple_count() > 0, "{layout} page is empty");
        for off in 0..page.body().len() {
            for mask in [0xFF, 0x01, 0x80] {
                let bad = page.corrupted_by(off, 1, mask);
                assert!(
                    matches!(bad.verify(), Err(PageError::ChecksumMismatch { .. })),
                    "{layout}: verify missed mask {mask:#x} at body offset {off}"
                );
                assert!(
                    matches!(
                        PageBuf::from_bytes(bad.raw().clone()),
                        Err(PageError::ChecksumMismatch { .. })
                    ),
                    "{layout}: from_bytes missed mask {mask:#x} at body offset {off}"
                );
            }
        }
    }
}
