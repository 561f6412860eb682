from perfbench.run import end_to_end, identity_failures
from perfbench.workloads import Outcome


def _outcome(digests, attempted, **kw):
    fields = dict(setup_s=1.0, rss_mb=100.0, first_s=[2.0], done_s=[4.0],
                  trials=attempted, busy_s=3.0, attempted=attempted,
                  failed=0, problems=[], stores=[f"s{i}" for i in
                                                 range(len(digests))],
                  digests=digests)
    fields.update(kw)
    return Outcome(**fields)


def test_a_wrong_campaign_store_fails_all_its_trials():
    units = [_outcome(["aa"], 32), _outcome(["bb"], 32)]
    result = identity_failures("midrun", units, ["aa"])
    assert result["failed"] == 32
    assert result["problems"] == ["midrun unit 1 store 0: sha256 bb != aa"]


def test_a_wrong_served_store_fails_one_job():
    units = [_outcome(["aa", "xx", "cc", ""], 4)]
    result = identity_failures("served", units, ["aa", "bb", "cc", "dd"])
    # the missing store ("") is a job that did not finish, counted where
    # the session found it
    assert result["failed"] == 1


def test_end_to_end_takes_medians_over_units_and_set_ups():
    units = [_outcome(["aa"], 30, busy_s=3.0, done_s=[4.0]),
             _outcome(["aa"], 30, busy_s=2.0, done_s=[3.0]),
             _outcome(["aa"], 30, busy_s=6.0, done_s=[7.0], rss_mb=120.0)]
    m = end_to_end(units, [1.0, 5.0, 1.2])
    assert m == {"trials_per_s": 10.0, "setup_s": 1.2, "peak_rss_mb": 120.0,
                 "first_result_p50_s": 2.0, "done_p50_s": 4.0}
