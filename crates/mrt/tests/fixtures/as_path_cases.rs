// The §3.1 AS_PATH cleaning table: attribute lists and the path each must
// clean to (`None` = the route is dropped). Every path starts at AS 10, so
// a feed hosted in AS 10 can carry each case as one route.
//
// Shared by `include!` between quasar-mrt's unit test of
// `PathAttribute::cleaned_as_path` and the root test that runs the same
// table through every MRT reader; the including module must have
// `PathAttribute` and `AsPathSegment` in scope.

/// `(case, attributes, cleaned path)`.
type AsPathCase = (&'static str, Vec<PathAttribute>, Option<Vec<u32>>);

fn as_path_cases() -> Vec<AsPathCase> {
    let route = |segments: Vec<AsPathSegment>| {
        vec![
            PathAttribute::Origin(0),
            PathAttribute::AsPath(segments),
            PathAttribute::NextHop(0xC000_0201),
        ]
    };
    vec![
        (
            "plain sequence",
            route(vec![AsPathSegment::sequence(vec![10, 20, 30])]),
            Some(vec![10, 20, 30]),
        ),
        (
            "prepended sequence",
            route(vec![AsPathSegment::sequence(vec![10, 10, 20, 30, 30, 30])]),
            Some(vec![10, 20, 30]),
        ),
        (
            "prepending across a segment boundary",
            route(vec![
                AsPathSegment::sequence(vec![10, 40]),
                AsPathSegment::sequence(vec![40, 50]),
            ]),
            Some(vec![10, 40, 50]),
        ),
        (
            "AS_SET segment",
            route(vec![
                AsPathSegment::sequence(vec![10, 60]),
                AsPathSegment::set(vec![70, 80]),
            ]),
            None,
        ),
        (
            "confederation segment",
            route(vec![
                AsPathSegment::sequence(vec![10]),
                AsPathSegment {
                    seg_type: 3,
                    asns: vec![65_001],
                },
                AsPathSegment::sequence(vec![90]),
            ]),
            None,
        ),
        (
            "missing AS_PATH",
            vec![PathAttribute::Origin(0), PathAttribute::NextHop(0xC000_0201)],
            None,
        ),
    ]
}
