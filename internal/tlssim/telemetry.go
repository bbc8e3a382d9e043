package tlssim

import (
	"errors"
	"strings"

	"repro/internal/telemetry"
)

// metricLabel makes a value safe as a dot-scoped metric-name segment
// (version strings like "TLS 1.2" carry spaces).
func metricLabel(s string) string {
	return strings.ReplaceAll(s, " ", "_")
}

// finishClientFailure records the client-side outcome counters under
// the failure class. The alert taxonomy is attributed to the library
// profile: the paper's probing technique reads exactly this per-library
// alert behaviour (Table 4).
func finishClientFailure(tel *telemetry.Registry, cfg *ClientConfig, err error) {
	tel.Counter("tlssim.client.handshakes").Inc()
	tel.Counter("tlssim.client.failed").Inc()
	class := "error"
	var he *HandshakeError
	if errors.As(err, &he) {
		class = he.Class.String()
		if he.Alert != nil {
			dir := "sent"
			if he.Class == FailAlertReceived {
				dir = "received"
			}
			desc := metricLabel(he.Alert.Description.String())
			tel.Counter("tlssim.alerts." + dir + "." + desc).Inc()
			if cfg.Library != nil && dir == "sent" {
				tel.Counter("tlssim.client.lib." + metricLabel(cfg.Library.Name) + ".alerts." + desc).Inc()
			}
		} else {
			tel.Counter("tlssim.alerts.none").Inc()
		}
	}
	tel.Counter("tlssim.client.failed." + class).Inc()
	if cfg.Library != nil {
		tel.Counter("tlssim.client.lib." + metricLabel(cfg.Library.Name) + ".failed").Inc()
	}
}

// finishClientSuccess records establishment counters.
func finishClientSuccess(tel *telemetry.Registry, cfg *ClientConfig, sess *Session) {
	tel.Counter("tlssim.client.handshakes").Inc()
	tel.Counter("tlssim.client.established").Inc()
	tel.Counter("tlssim.client.established.version." + metricLabel(sess.Version.String())).Inc()
	tel.Counter("tlssim.client.established.suite." + sess.Suite.String()).Inc()
	if sess.ValidationBypassed {
		tel.Counter("tlssim.client.validation_bypassed").Inc()
	}
	if cfg.Library != nil {
		tel.Counter("tlssim.client.lib." + metricLabel(cfg.Library.Name) + ".established").Inc()
	}
}
