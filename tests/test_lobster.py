"""Message-file parsing, canonical serialization, and synthetic flow statistics."""

import hashlib
import os

import numpy as np
import pytest

from lobsim import (
    EventType,
    LobsterParseError,
    Side,
    SyntheticFlowConfig,
    generate_synthetic,
    generate_to_file,
    parse_message_file,
    seconds,
    write_message_file,
)
from lobsim.book import Order, OrderBook
from lobsim.kernel import time_from_str
from lobsim import lobster
from lobsim.lobster import CHUNK_ROWS, FlowColumns, FlowHelperError, StreamedFlow, stream_synthetic

import lobster_reference
from replay_oracle import OracleBook
from synthetic_reference import reference_synthetic


def write_text(tmp_path, text):
    path = tmp_path / "messages.csv"
    path.write_bytes(text.encode())
    return path


def parse_text(tmp_path, text):
    return list(parse_message_file(write_text(tmp_path, text)))


def parse_row(tmp_path, row):
    (event,) = parse_text(tmp_path, row + "\n")
    return event


# Rows in the shapes real LOBSTER files and hand edits use; each must read
# exactly as the row-at-a-time reader read it.
REAL_ROWS = [
    "34200.004241176,1,16113575,18,5853300,1",
    "34713.685155243,7,0,0,-1,-1",  # trading halt
    "34714.1,5,0,100,0,-1",  # hidden execution, no price
    "34715.2,4,16113575,18,5853300,1\r",  # CRLF line end
    " 34716.3 , 2 , 16113575 , 5 , 5853300 , 1 ",
    "34717.1234567891234,3,16113575,13,5853300,1",  # more than nine digits
    "34718,1,16113576,1,5853400,-1",  # no fraction
    "34719.,1,16113577,1,5853400,-1",
    "\t34720.5\t,\t1\t,-3,7,5853500,\t-1\t",
]


class TestParsing:
    def test_new_limit_buy_row(self, tmp_path):
        event = parse_row(tmp_path, "34200.000000001,1,11885113,21,2238100,1")
        assert event.time_ns == 34_200_000_000_001
        assert event.event_type is EventType.NEW_LIMIT
        assert event.order_id == 11885113
        assert event.size == 21
        assert event.price == 2_238_100  # $223.81 in dollars x 10^4
        assert event.direction == 1
        assert event.side is Side.BID

    def test_delete_sell_row(self, tmp_path):
        event = parse_row(tmp_path, "36000.5,3,42,100,1000000,-1")
        assert event.time_ns == 36_000_500_000_000
        assert event.event_type is EventType.DELETE
        assert event.order_id == 42
        assert event.side is Side.ASK

    def test_file_reads_into_columns(self, tmp_path):
        flow = parse_message_file(write_text(tmp_path, "36000.5,3,42,100,1000000,-1\n"))
        assert type(flow) is FlowColumns
        assert [list(column) for column in flow.columns()] == \
            [[36_000_500_000_000], [3], [42], [100], [1_000_000], [-1]]

    def test_empty_file_yields_nothing(self, tmp_path):
        assert parse_text(tmp_path, "") == []

    def test_blank_lines_skipped(self, tmp_path):
        text = "\n34200.0,1,1,10,1000000,1\n  \r\n\n"
        assert len(parse_text(tmp_path, text)) == 1

    @pytest.mark.parametrize("text, time_ns", [
        ("100", 100_000_000_000),
        ("0.123456789", 123_456_789),
        ("1.1234567891", 1_123_456_789),
        ("7.", 7_000_000_000),
        ("007.5", 7_500_000_000),
    ])
    def test_time_parsing_pads_and_truncates(self, tmp_path, text, time_ns):
        assert parse_row(tmp_path, f"{text},1,1,10,1000000,1").time_ns == time_ns

    def test_halt_and_hidden_execution_rows(self, tmp_path):
        halt = parse_row(tmp_path, "34713.685155243,7,0,0,-1,-1")
        assert (halt.event_type, halt.size, halt.price) == (EventType.HALT, 0, -1)
        hidden = parse_row(tmp_path, "100.0,5,0,50,0,1")
        assert (hidden.event_type, hidden.price) == (EventType.EXECUTE_HIDDEN, 0)

    def test_real_rows_read_as_the_row_reader_read_them(self, tmp_path):
        path = write_text(tmp_path, "".join(row + "\n" for row in REAL_ROWS))
        flow = parse_message_file(path)
        assert len(flow) == len(REAL_ROWS)
        assert flow == FlowColumns.of(lobster_reference.parse_message_file(path))

    def test_default_day_reads_as_the_row_reader_read_it(self, tmp_path):
        path = tmp_path / "day.csv"
        generate_to_file(SyntheticFlowConfig(), path)  # the seed-0 day gen-data writes
        flow = parse_message_file(path)
        assert len(flow) == 47_087
        assert flow == FlowColumns.of(lobster_reference.parse_message_file(path))

    def test_wrong_column_count_carries_line_number(self, tmp_path):
        text = "34200.0,1,1,10,1000000,1\n34200.1,1,2,10,1000000\n"
        with pytest.raises(LobsterParseError, match="line 2") as excinfo:
            parse_text(tmp_path, text)
        assert excinfo.value.line_number == 2

    def test_bytes_that_are_not_utf8_carry_path_and_line_number(self, tmp_path):
        path = tmp_path / "messages.csv"
        rows = "".join(f"{100 + i}.0,1,{i},10,1000000,1\n" for i in range(5000))
        path.write_bytes(rows.encode() + b"99999.0,1,1,1\xe90,1000000,1\n")
        with pytest.raises(LobsterParseError, match="not UTF-8") as excinfo:
            parse_message_file(path)
        assert excinfo.value.line_number == 5001
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize(
        "row,reason",
        [
            ("34200.0,6,1,10,1000000,1", "type 6"),  # no such event type
            ("34200.0,1,x,10,1000000,1", "malformed order_id field 'x'"),
            ("34200.0,1,1,0,1000000,1", "size must be positive"),
            ("34200.0,1,1,10,0,1", "price must be positive"),
            ("34200.0,1,1,10,1000000,2", "direction"),
            ("-1.0,1,1,10,1000000,1", "malformed time field"),
            # each of these used to be accepted, the first three as other times
            ("-0.5,1,1,10,1000000,1", "malformed time field"),  # as +0.5 s
            ("1.-5,1,1,10,1000000,1", "malformed time field"),  # as 0.95 s
            ("5 . 5,1,1,10,1000000,1", "malformed time field"),  # as 5.05 s
            ("+34200.0,1,1,10,1000000,1", "malformed time field"),
            ("34200.0,1,1,+10,1000000,1", "malformed size field"),
            ("34200.0,1,1,10,1000000,+1", "malformed direction field"),
            ("34_200.0,1,1,10,1000000,1", "malformed time field"),
            ("34200.0,1,1,10,1_000_000,1", "malformed price field"),
            ("34200.0,1,\uff11,10,1000000,1", "malformed order_id field"),  # full-width digit
            ("34200.\uff15,1,1,10,1000000,1", "malformed time field"),
            ("34200.0,\uff11,1,10,1000000,1", "malformed type field"),
            # each of these used to end in an OverflowError once copied to columns
            ("34200.0,1,1,10,99999999999999999999,1", "price is outside the int64 range"),
            ("34200.0,1,-9223372036854775809,10,1000000,1", "order_id is outside"),
            ("99999999999.0,1,1,10,1000000,1", "time is outside the int64 range"),
        ],
    )
    def test_malformed_rows_rejected(self, tmp_path, row, reason):
        path = write_text(tmp_path, row + "\n")
        with pytest.raises(LobsterParseError, match=reason) as excinfo:
            parse_message_file(path)
        assert excinfo.value.line_number == 1
        assert str(excinfo.value).startswith(f"{path}: line 1: ")

    def test_nonmonotone_time_warns_but_keeps_event(self, tmp_path):
        text = "100.0,1,1,10,1000000,1\n99.0,1,2,10,1000000,1\n"
        with pytest.warns(UserWarning, match="backwards"):
            events = parse_text(tmp_path, text)
        assert [e.order_id for e in events] == [1, 2]


class TestRoundTrip:
    def test_canonical_time_formatting(self, tmp_path):
        out = tmp_path / "canonical.csv"
        write_message_file([parse_row(tmp_path, "36000.5,3,42,100,1000000,-1")], out)
        assert out.read_text() == "36000.500000000,3,42,100,1000000,-1\n"

    def test_parse_write_parse_is_identity(self, tmp_path):
        text = (
            "34200.000000001,1,11885113,21,2238100,1\n"
            "36000.5,3,42,100,1000000,-1\n"
            "36001,2,7,5,2238100,1\n"
            "36002.25,4,11885113,21,2238100,1\n"
        )
        first = parse_message_file(write_text(tmp_path, text))
        out = tmp_path / "canonical.csv"
        write_message_file(first, out)
        second = parse_message_file(out)
        assert second == first
        # canonical text is a fixed point
        again = tmp_path / "canonical2.csv"
        write_message_file(second, again)
        assert again.read_bytes() == out.read_bytes()


def hour_config(**kw) -> SyntheticFlowConfig:
    defaults = dict(arrival_rate_per_side=2.0, session_start_ns=0,
                    session_end_ns=seconds(3_600), seed=42)
    defaults.update(kw)
    return SyntheticFlowConfig(**defaults)


class TestSyntheticFlow:
    def test_event_count_within_poisson_band(self):
        # merged rate 4/s over 3600s: mean 14_400, sigma = sqrt(14_400) = 120
        events = list(generate_synthetic(hour_config()))
        assert abs(len(events) - 14_400) <= 3 * 120

    def test_times_within_session_and_nondecreasing(self):
        config = hour_config(seed=3)
        times = [e.time_ns for e in generate_synthetic(config)]
        assert times == sorted(times)
        assert config.session_start_ns <= times[0]
        assert times[-1] <= config.session_end_ns

    def test_same_seed_identical_streams(self):
        a = list(generate_synthetic(hour_config(seed=11)))
        b = list(generate_synthetic(hour_config(seed=11)))
        assert a == b

    def test_different_seed_differs(self):
        a = list(generate_synthetic(hour_config(seed=1)))
        b = list(generate_synthetic(hour_config(seed=2)))
        assert a != b

    def test_zero_cancel_probability_means_only_new_limits(self):
        events = generate_synthetic(hour_config(seed=5, cancel_probability=0.0))
        assert all(e.event_type is EventType.NEW_LIMIT for e in events)

    def test_sizes_at_least_one(self):
        events = generate_synthetic(hour_config(seed=6, size_gamma_shape=0.2, size_gamma_scale=0.5))
        assert all(e.size >= 1 for e in events)

    def test_placements_never_cross(self):
        # rebuild the book independently; each new limit must leave it uncrossed
        book = OracleBook()
        for event in generate_synthetic(hour_config(seed=9)):
            if event.event_type is EventType.NEW_LIMIT:
                if event.direction == 1 and book.best_ask() is not None:
                    assert event.price < book.best_ask()
                if event.direction == -1 and book.best_bid() is not None:
                    assert event.price > book.best_bid()
            book.apply(event)

    def test_interarrival_rate_recoverable(self):
        # MLE exponential rate over >= 10k events within 5% of the merged rate
        config = hour_config(seed=13)
        times = np.array([e.time_ns for e in generate_synthetic(config)], dtype=np.int64)
        assert len(times) >= 10_000
        gaps = np.diff(np.concatenate(([config.session_start_ns], times))) / 1e9
        rate_hat = len(gaps) / gaps.sum()
        assert abs(rate_hat - 4.0) / 4.0 < 0.05

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            hour_config(arrival_rate_per_side=0.0).validate()
        with pytest.raises(ValueError):
            hour_config(cancel_probability=1.0).validate()
        with pytest.raises(ValueError):
            hour_config(placement_geometric_p=0.0).validate()
        with pytest.raises(ValueError):
            hour_config(session_end_ns=0).validate()
        with pytest.raises(ValueError, match="initial_mid_ticks"):
            hour_config(initial_mid_ticks=2**62).validate()

    def test_largest_initial_mid_keeps_prices_in_int64(self):
        flow = generate_synthetic(hour_config(initial_mid_ticks=2**62 - 1,
                                              placement_geometric_p=1e-9,
                                              session_end_ns=seconds(60)))
        assert len(flow) > 0 and max(flow.price) < 2**63


class TestColumnarGenerator:
    @pytest.mark.parametrize("overrides", [
        dict(cancel_probability=0.0),
        dict(cancel_probability=0.2),
        dict(cancel_probability=0.7),
        dict(cancel_probability=0.95),
        dict(placement_geometric_p=1.0),
        dict(placement_geometric_p=0.05),
        dict(placement_geometric_p=0.05, initial_mid_ticks=5),  # bids clamp at one tick
        dict(size_gamma_shape=0.2, size_gamma_scale=0.5),  # mostly one-unit orders
        dict(arrival_rate_per_side=5.0),
    ], ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()))
    def test_same_stream_as_the_order_book_shadow(self, overrides):
        config = hour_config(seed=31, session_end_ns=seconds(900), **overrides)
        flow = generate_synthetic(config)
        assert list(flow) == list(reference_synthetic(config))
        assert FlowColumns.of(reference_synthetic(config)) == flow

    def test_default_day_file_is_pinned(self, tmp_path):
        path = tmp_path / "day.csv"
        write_message_file(generate_synthetic(SyntheticFlowConfig()), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "57d350aa02efacedb318c7b960e2474f5b037d7fd33f6f150284a7006453f93b"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="each new order rests behind the opposite best and "
                       "each cancel picks among ~30k resting orders, so once the spread is "
                       "one tick the best levels never empty; mending it moves the stream")
    def test_default_day_moves_the_top_of_book_during_the_trading_window(self):
        flow = generate_synthetic(SyntheticFlowConfig())
        start, end = time_from_str("10:00:00"), time_from_str("15:30:00")
        book, tops = OrderBook(), set()
        for time_ns, event_type, order_id, size, price, direction in zip(*flow.columns()):
            inside = start <= time_ns <= end
            if inside:
                tops.add((book.best_bid(), book.best_ask()))
            if event_type == EventType.NEW_LIMIT:
                side = Side.BID if direction == 1 else Side.ASK
                book.submit(Order(order_id, 0, side, price, size))
            elif event_type == EventType.PARTIAL_CANCEL:
                book.reduce(order_id, size)
            elif event_type == EventType.DELETE:
                book.cancel(order_id)
            if inside:
                tops.add((book.best_bid(), book.best_ask()))
        assert len(tops) > 1, f"the top of book stays at {tops}"

    def test_rows_are_python_ints(self):
        flow = generate_synthetic(hour_config(seed=4, session_end_ns=seconds(60)))
        event = next(iter(flow))
        assert type(flow.price[0]) is int
        assert event.event_type is EventType.NEW_LIMIT
        assert [type(value) for value in (event.time_ns, event.order_id, event.size,
                                          event.price, event.direction)] == [int] * 5


def column_bytes(flow) -> list:
    return [column.tobytes() for column in flow.columns()]


class TestStreamedFlow:
    """`stream_synthetic` makes the day in a forked helper; whole, its
    columns are `generate_synthetic`'s byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_streamed_columns_equal_the_generator(self, seed):
        config = hour_config(seed=seed)  # about 14,400 rows: seven chunks
        flow = stream_synthetic(config)
        assert isinstance(flow, StreamedFlow)
        assert 0 < len(flow) <= CHUNK_ROWS  # the first chunk, or the whole day when short
        flow.finish()
        assert column_bytes(flow) == column_bytes(generate_synthetic(config))
        assert not flow.pull()

    def test_pull_adds_one_chunk(self):
        flow = stream_synthetic(hour_config(seed=3))
        assert len(flow) == CHUNK_ROWS
        assert flow.pull()
        assert len(flow) == 2 * CHUNK_ROWS
        flow.finish()

    def test_an_empty_day(self):
        config = hour_config(session_end_ns=1_000)  # a microsecond: no arrival
        assert len(generate_synthetic(config)) == 0
        flow = stream_synthetic(config)
        assert len(flow) == 0
        assert not flow.pull()

    def test_a_day_shorter_than_one_chunk(self):
        config = hour_config(seed=5, session_end_ns=seconds(60))
        expected = generate_synthetic(config)
        assert 0 < len(expected) < CHUNK_ROWS
        flow = stream_synthetic(config)
        flow.finish()
        assert column_bytes(flow) == column_bytes(expected)

    def test_a_day_of_exactly_one_chunk(self):
        # the draws do not depend on the session's end, so a day ending
        # between the chunk's last row and the next keeps exactly the chunk
        times = generate_synthetic(hour_config(seed=8)).time
        config = hour_config(seed=8, session_end_ns=(times[CHUNK_ROWS - 1]
                                                     + times[CHUNK_ROWS]) // 2)
        expected = generate_synthetic(config)
        assert len(expected) == CHUNK_ROWS
        flow = stream_synthetic(config)
        assert len(flow) == CHUNK_ROWS
        assert not flow.pull()
        assert column_bytes(flow) == column_bytes(expected)

    def test_without_fork_the_day_is_made_in_process(self, monkeypatch):
        config = hour_config(seed=9)
        expected = generate_synthetic(config)
        monkeypatch.delattr(os, "fork")
        flow = stream_synthetic(config)
        assert type(flow) is FlowColumns
        assert column_bytes(flow) == column_bytes(expected)

    def test_a_bad_config_fails_before_the_fork(self):
        with pytest.raises(ValueError, match="arrival_rate_per_side"):
            stream_synthetic(hour_config(arrival_rate_per_side=0.0))

    def test_close_kills_the_helper_and_leaves_the_day_cut(self):
        flow = stream_synthetic(hour_config(seed=4, arrival_rate_per_side=500.0))
        flow.close()
        with pytest.raises(FlowHelperError, match="stopped"):
            flow.pull()

    @pytest.mark.parametrize("failure", ["raise", "sigkill"])
    def test_a_failing_helper_raises_on_every_pull(self, monkeypatch, failure):
        generate = lobster.generate_synthetic

        def failing(config, on_chunk):  # runs in the helper
            def second_chunk_fails(flow):
                if len(flow) > CHUNK_ROWS:
                    if failure == "sigkill":
                        os.kill(os.getpid(), 9)
                    raise RuntimeError("no second chunk")
                on_chunk(flow)
            return generate(config, on_chunk=second_chunk_fails)

        monkeypatch.setattr(lobster, "generate_synthetic", failing)
        flow = stream_synthetic(hour_config(seed=2))
        assert len(flow) == CHUNK_ROWS
        reason = "killed by signal 9" if failure == "sigkill" else "RuntimeError: no second chunk"
        for _ in range(2):
            with pytest.raises(FlowHelperError, match=reason):
                flow.pull()
        assert len(flow) == CHUNK_ROWS


class TestGenerateToFile:
    def test_file_and_sidecar(self, tmp_path):
        config = hour_config(seed=21, session_end_ns=60 * 1_000_000_000)
        path = tmp_path / "flow.csv"
        sidecar = generate_to_file(config, path)
        events = list(parse_message_file(path))
        assert sidecar["total_events"] == len(events)
        assert sum(sidecar["event_counts"].values()) == len(events)
        assert sidecar["config"]["seed"] == 21
        assert (tmp_path / "flow.csv.meta.json").exists()

    def test_regenerating_is_byte_identical(self, tmp_path):
        config = hour_config(seed=22, session_end_ns=60 * 1_000_000_000)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_to_file(config, a)
        generate_to_file(config, b)
        assert a.read_bytes() == b.read_bytes()
