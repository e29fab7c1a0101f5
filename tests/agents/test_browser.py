"""Behavioural tests for the human browser model.

Each test drives a BrowserAgent against a real instrumented proxy node
and asserts on what the *detector* concluded — the observable channel.
"""

from __future__ import annotations

from repro.agents.behavior import (
    BehaviorProfile,
    JS_DISABLED_BROWSER,
    STANDARD_BROWSER,
)
from repro.agents.browser import BrowserAgent, BrowserConfig
from repro.util.rng import RngStream
from repro.workload.session_run import SessionRunner

FAST = BrowserConfig(
    min_pages=4,
    max_pages=6,
    warmup_probability=0.0,
    long_warmup_probability=0.0,
    external_referer_probability=0.0,
)


def _run_browser(make_node, entry_url, profile, seed=1, config=FAST):
    node = make_node()
    agent = BrowserAgent(
        client_ip="10.5.0.1",
        user_agent="Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1)",
        rng=RngStream(seed, "agent"),
        entry_url=entry_url,
        profile=profile,
        config=config,
    )
    record = SessionRunner(node.handle).run(agent)
    state = node.session(agent.client_ip, agent.user_agent)
    return record, state, node


class TestStandardBrowser:
    def test_full_evidence_trail(self, make_node, entry_url):
        profile = BehaviorProfile(mouse_move_probability=1.0)
        record, state, _ = _run_browser(make_node, entry_url, profile)
        assert state is not None
        assert state.in_css_set, "browser must fetch the beacon CSS"
        assert state.in_js_set, "JS browser must execute the UA probe"
        assert state.in_mouse_set, "mouse user must trigger the beacon"
        assert state.beacon_js_at is not None
        assert not state.followed_hidden_link
        assert not state.ua_mismatched
        assert state.wrong_key_fetches == 0

    def test_is_classified_human(self, make_node, entry_url):
        profile = BehaviorProfile(mouse_move_probability=1.0)
        _, state, node = _run_browser(make_node, entry_url, profile)
        verdict = node.classifier.classify_final(state)
        assert verdict.label.value == "human"

    def test_browser_fetches_trap_image_not_trap_page(
        self, make_node, entry_url
    ):
        profile = BehaviorProfile(mouse_move_probability=1.0)
        _, state, _ = _run_browser(make_node, entry_url, profile)
        assert not state.followed_hidden_link

    def test_never_mouse_profile_produces_no_mouse(self, make_node, entry_url):
        profile = BehaviorProfile(mouse_user=False)
        _, state, _ = _run_browser(make_node, entry_url, profile)
        assert state.in_js_set
        assert not state.in_mouse_set


class TestJsDisabledBrowser:
    def test_css_without_js(self, make_node, entry_url):
        _, state, node = _run_browser(
            make_node, entry_url, JS_DISABLED_BROWSER
        )
        assert state.in_css_set
        assert not state.in_js_set
        assert not state.in_mouse_set
        # The set algebra still calls this a human.
        verdict = node.classifier.classify_final(state)
        assert verdict.label.value == "human"

    def test_no_script_fetches(self, make_node, entry_url):
        _, state, _ = _run_browser(make_node, entry_url, JS_DISABLED_BROWSER)
        assert state.beacon_js_at is None


class TestWarmup:
    def test_warmup_delays_first_page(self, make_node, entry_url):
        config = BrowserConfig(
            min_pages=2,
            max_pages=3,
            warmup_probability=1.0,
            warmup_max=8,
            long_warmup_probability=0.0,
        )
        profile = BehaviorProfile(mouse_move_probability=1.0)
        _, state, _ = _run_browser(
            make_node, entry_url, profile, config=config
        )
        # The CSS beacon cannot be the very first requests: warmup precedes.
        assert state.css_beacon_at is not None
        assert state.css_beacon_at > 1


class TestRedirects:
    def test_browser_follows_cgi_redirects(
        self, make_node, entry_url, small_site
    ):
        # Force navigation through a CGI link page by many pages.
        config = BrowserConfig(
            min_pages=10, max_pages=14,
            warmup_probability=0.0, long_warmup_probability=0.0,
        )
        profile = BehaviorProfile(mouse_move_probability=0.0, mouse_user=False)
        seen_redirect = False
        for seed in range(12):
            _, state, _ = _run_browser(
                make_node, entry_url, profile, seed=seed, config=config
            )
            if state is not None and state.status_3xx > 0:
                seen_redirect = True
                break
        assert seen_redirect, "humans should encounter CGI redirects"


class TestDeterminism:
    def test_same_seed_same_stream(self, make_node, entry_url):
        profile = STANDARD_BROWSER
        record_a, state_a, _ = _run_browser(
            make_node, entry_url, profile, seed=42
        )
        record_b, state_b, _ = _run_browser(
            make_node, entry_url, profile, seed=42
        )
        assert record_a.requests == record_b.requests
        assert state_a.css_beacon_at == state_b.css_beacon_at
        assert state_a.mouse_event_at == state_b.mouse_event_at
