// Package teamwork models the soft-skills infrastructure of Assignment 1:
// the four required teamwork technologies (Slack, GitHub, Google Docs,
// YouTube) as event logs feeding participation metrics, the peer rating
// form each assignment collects, and the Teamwork Basics ground rules.
// The study consumes only the participation and peer-rating signals from
// these tools, so that is what the models produce.
package teamwork

import (
	"fmt"
	"math"
	"math/rand"

	"pblparallel/internal/teams"
)

// Channel is one of the four required technologies.
type Channel int

const (
	Slack Channel = iota
	GitHub
	GoogleDocs
	YouTube
)

// Channels lists all four in the paper's order.
var Channels = []Channel{Slack, GitHub, GoogleDocs, YouTube}

// String names the channel.
func (c Channel) String() string {
	switch c {
	case Slack:
		return "Slack"
	case GitHub:
		return "GitHub"
	case GoogleDocs:
		return "Google Docs"
	case YouTube:
		return "YouTube"
	default:
		return fmt.Sprintf("Channel(%d)", int(c))
	}
}

// Role describes what the course uses the channel for (Section I).
func (c Channel) Role() string {
	switch c {
	case Slack:
		return "a messaging application to communicate"
	case GitHub:
		return "collaborate, create customized workflows, and share code"
	case GoogleDocs:
		return "collaborate and produce project assignment reports"
	case YouTube:
		return "shoot, edit, and upload videos to present the results"
	default:
		return "unknown"
	}
}

// EventKind is the unit of activity on a channel.
type EventKind string

const (
	EventMessage  EventKind = "message"
	EventCommit   EventKind = "commit"
	EventDocEdit  EventKind = "doc-edit"
	EventVideoCut EventKind = "video-upload"
)

// Event is one logged activity. It holds no pointers, so the GC never
// scans a log's event slice.
type Event struct {
	Week    int
	Channel Channel
	Student int
}

// Kind is the event's activity unit, which its channel determines.
func (e Event) Kind() EventKind {
	switch e.Channel {
	case Slack:
		return EventMessage
	case GitHub:
		return EventCommit
	case GoogleDocs:
		return EventDocEdit
	default:
		return EventVideoCut
	}
}

// baseRate is a member's base weekly event count on a channel: Slack
// chatter is the most frequent, video uploads the rarest.
func baseRate(c Channel) float64 {
	switch c {
	case Slack:
		return 6
	case GitHub:
		return 3
	case GoogleDocs:
		return 2
	case YouTube:
		return 0.3
	}
	return 0
}

// memberRate scales a member's weekly activity with their aptitude,
// floored at 0.1.
func memberRate(aptitude float64) float64 {
	return math.Max(1+aptitude/4, 0.1)
}

// Log is a team's activity record for the semester.
type Log struct {
	TeamID int
	Events []Event
}

// CountBy returns events per student on one channel.
func (l *Log) CountBy(channel Channel) map[int]int {
	out := map[int]int{}
	for _, e := range l.Events {
		if e.Channel == channel {
			out[e.Student]++
		}
	}
	return out
}

// Participation returns each student's share of the team's total
// activity (all channels), in [0,1]; an empty log returns nil.
func (l *Log) Participation() map[int]float64 {
	counts := map[int]int{}
	total := 0
	for _, e := range l.Events {
		counts[e.Student]++
		total++
	}
	if total == 0 {
		return nil
	}
	out := make(map[int]float64, len(counts))
	for s, c := range counts {
		out[s] = float64(c) / float64(total)
	}
	return out
}

// SimulateTeamActivity generates a deterministic semester of channel
// events for a team: each member's weekly activity rate scales with
// (1 + aptitude/4), so stronger engagement produces more events — the
// signal the peer ratings pick up.
func SimulateTeamActivity(tm teams.Team, weeks int, seed int64) (*Log, error) {
	if weeks < 1 {
		return nil, fmt.Errorf("teamwork: %d weeks", weeks)
	}
	if tm.Size() == 0 {
		return nil, fmt.Errorf("teamwork: empty team %d", tm.ID)
	}
	// A member draws int(base·rate + u), u in [0,1), events per channel
	// per week, at most int(base·rate)+1: size the log once from that.
	bound := 0
	for _, m := range tm.Members {
		for _, ch := range Channels {
			bound += int(baseRate(ch)*memberRate(m.Aptitude)) + 1
		}
	}
	rng := rand.New(rand.NewSource(seed ^ int64(tm.ID)<<17))
	log := &Log{TeamID: tm.ID, Events: make([]Event, 0, bound*weeks)}
	for week := 1; week <= weeks; week++ {
		for _, m := range tm.Members {
			rate := memberRate(m.Aptitude)
			for _, ch := range Channels {
				n := int(baseRate(ch)*rate + rng.Float64())
				for k := 0; k < n; k++ {
					log.Events = append(log.Events, Event{Week: week, Channel: ch, Student: m.ID})
				}
			}
		}
	}
	return log, nil
}

// GroundRules returns the Teamwork Basics norms of Assignment 1.
func GroundRules() map[string][]string {
	return map[string][]string{
		"work norms": {
			"divide work fairly and set internal deadlines",
			"review each other's work before submission",
		},
		"facilitator norms": {
			"rotate the coordinator role every assignment",
			"the coordinator interfaces with the instructor and tracks tasks",
		},
		"communication norms": {
			"respond on Slack within 24 hours",
			"raise conflicts early and respectfully",
		},
		"meeting norms": {
			"agree on a weekly meeting time; attendance expected",
			"record decisions in the shared document",
		},
		"handling difficult behavior": {
			"name the behavior, not the person",
			"escalate to the instructor only after a team conversation",
		},
		"handling group problems": {
			"persistent non-cooperation leads to a zero grade per the policy",
		},
	}
}
